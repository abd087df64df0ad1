//! Analog DRAM remanence: per-cell decay of terminated-process residue.
//!
//! The base store models residue as all-or-nothing frames: a terminated
//! process's bytes survive bit-exactly until a sanitizer clears them.
//! Pentimento-style measurements of cloud FPGAs show the real phenomenon is
//! analog — charge leaks out of individual cells over time, so residue
//! *decays* between termination and the scrape.  [`RemanenceModel`] is that
//! axis: a deterministic, seedable model of how much of a residue byte is
//! still readable after a number of **logical ticks** (kernel clock ticks —
//! scenario steps and churned scrape chunks, never wall clock, so campaigns
//! swept over this axis stay replayable and worker-count independent).
//!
//! # Semantics
//!
//! Decay is a *view*, not a mutation: the store keeps the raw residue bytes
//! and applies the model lazily when non-owned residue is read (see
//! [`Dram`](crate::Dram)).  Three invariants make the view replayable:
//!
//! - **Pure** — a cell's decayed value depends only on the decay seed, the
//!   cell's (stripe, offset) coordinates, the elapsed ticks since the stripe
//!   became residue, and the raw byte.  Every read of the same state is
//!   therefore byte-identical by construction, whatever range it covers.
//! - **Monotone** — as elapsed ticks grow, a cell can only lose information:
//!   survival thresholds shrink ([`RemanenceModel::Exponential`]) or
//!   clear-bit thresholds grow ([`RemanenceModel::BitFlip`]).  Decay never
//!   *creates* residue: a zero byte stays zero, and a decayed byte's set bits
//!   are always a subset of the raw byte's.
//! - **Scoped** — the view applies only to frames whose owner has terminated
//!   (residue).  Live owners' data is returned raw at every tick.
//!
//! The draw is per cell and only the threshold moves with the tick, so one
//! sweep evaluates the view at several ticks, drawing each cell once
//! ([`Dram::read_ticks`](crate::Dram::read_ticks)).

// Lint audit: narrowing casts here operate on values already clamped
// to their target range by the surrounding arithmetic.
#![allow(clippy::cast_possible_truncation)]

/// splitmix64 — the workspace's standard cheap deterministic mixer; used to
/// derive the per-cell decay randomness from the decay seed.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The per-cell decay draw: a uniform `u64` derived from the decay seed and
/// the cell's (stripe, offset-in-stripe) coordinates.  This is the
/// per-stripe decay state in functional form — every stripe draws from its
/// own slice of the sequence, so no read mutates it.
///
/// It is the composition of [`stripe_hash`] and [`cell_hash_in_stripe`]; a
/// read that walks one stripe computes the first once per stripe.
pub fn cell_hash(seed: u64, stripe: u64, offset_in_stripe: u64) -> u64 {
    cell_hash_in_stripe(stripe_hash(seed, stripe), offset_in_stripe)
}

/// The stripe half of [`cell_hash`]: it depends only on the decay seed and
/// the stripe.
pub fn stripe_hash(seed: u64, stripe: u64) -> u64 {
    splitmix64(seed ^ stripe.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// The per-cell half of [`cell_hash`]: the draw of the cell at
/// `offset_in_stripe` given its stripe's [`stripe_hash`].
pub fn cell_hash_in_stripe(stripe_hash: u64, offset_in_stripe: u64) -> u64 {
    splitmix64(stripe_hash ^ offset_in_stripe.wrapping_mul(0x9FB2_1C65_1E98_DF25))
}

/// How residue decays between a process's termination and the scrape.
///
/// A campaign axis (swept via
/// `CampaignSpec::with_remanence_models` in `msa-core`): [`Perfect`] is the
/// base model every earlier experiment ran on, the other two degrade the
/// attacker's haul the way Pentimento-style analog retention does.
///
/// [`Perfect`]: RemanenceModel::Perfect
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum RemanenceModel {
    /// Residue survives bit-exactly until sanitized (the all-or-nothing model
    /// of the base reproduction).  The decay machinery is fully inert: reads
    /// take the exact pre-remanence hot path.
    #[default]
    Perfect,
    /// Whole-byte exponential decay: a residue byte is still readable after
    /// `e` ticks with probability `2^(-e / half_life_ticks)`; a decayed byte
    /// reads as zero (its cells discharged).  `half_life_ticks == 0` means
    /// instant decay after the first tick.
    Exponential {
        /// Ticks after which half of the residue bytes have decayed to zero.
        half_life_ticks: u64,
    },
    /// Per-bit discharge: each *set* bit of a residue byte independently
    /// clears with per-tick probability `rate_ppm / 1_000_000`
    /// (cleared-bit probability after `e` ticks: `1 - (1 - p)^e`).  Bits only
    /// ever discharge toward zero, so decay never fabricates data.
    BitFlip {
        /// Per-tick, per-bit discharge probability in parts per million.
        rate_ppm: u64,
    },
}

impl RemanenceModel {
    /// `true` for the inert base model (no decay machinery runs at all).
    pub fn is_perfect(&self) -> bool {
        matches!(self, RemanenceModel::Perfect)
    }

    /// Short name used in tables and cell labels.
    pub fn name(&self) -> &'static str {
        match self {
            RemanenceModel::Perfect => "perfect",
            RemanenceModel::Exponential { .. } => "exponential",
            RemanenceModel::BitFlip { .. } => "bitflip",
        }
    }

    /// Resolves the model at a fixed elapsed-tick count into a [`DecayCurve`]
    /// that can be applied cheaply per byte (the threshold math runs once per
    /// contiguous chunk, not once per cell).
    pub fn curve(&self, elapsed_ticks: u64) -> DecayCurve {
        if elapsed_ticks == 0 {
            return DecayCurve::Identity;
        }
        match *self {
            RemanenceModel::Perfect => DecayCurve::Identity,
            RemanenceModel::Exponential { half_life_ticks } => {
                if half_life_ticks == 0 {
                    return DecayCurve::KeepBelow { threshold: 0 };
                }
                let survival = (-(elapsed_ticks as f64) / half_life_ticks as f64)
                    .exp2()
                    .min(1.0);
                let threshold = (survival * THRESHOLD_SCALE) as u64;
                if threshold == u64::MAX {
                    // The saturating f64→u64 cast rounded the survival
                    // probability up to 2^64: no hash can reach the
                    // threshold, so the curve is inert.  Returning the
                    // explicit identity keeps `is_identity()` and `apply()`
                    // in agreement for a cell hash of exactly `u64::MAX`
                    // (which `KeepBelow { u64::MAX }` would still zero).
                    return DecayCurve::Identity;
                }
                DecayCurve::KeepBelow { threshold }
            }
            RemanenceModel::BitFlip { rate_ppm } => {
                let p = (rate_ppm as f64 / 1_000_000.0).clamp(0.0, 1.0);
                let retain = (1.0 - p).powf(elapsed_ticks as f64);
                DecayCurve::ClearBitsBelow {
                    threshold: ((1.0 - retain) * THRESHOLD_SCALE) as u64,
                }
            }
        }
    }
}

impl std::fmt::Display for RemanenceModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemanenceModel::Perfect => write!(f, "perfect"),
            RemanenceModel::Exponential { half_life_ticks } => {
                write!(f, "exponential(hl={half_life_ticks})")
            }
            RemanenceModel::BitFlip { rate_ppm } => write!(f, "bitflip({rate_ppm}ppm)"),
        }
    }
}

/// `2^64` as an `f64`; probabilities are mapped onto the full `u64` hash
/// range so threshold comparisons stay pure integer ops on the per-byte path.
const THRESHOLD_SCALE: f64 = 1.844_674_407_370_955_2e19;

/// A [`RemanenceModel`] resolved at a fixed elapsed-tick count.
///
/// Thresholds are monotone in the elapsed ticks the curve was built for:
/// `KeepBelow` thresholds only ever shrink and `ClearBitsBelow` thresholds
/// only ever grow, which is what makes the decayed view monotone over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecayCurve {
    /// No decay (zero elapsed ticks, or the perfect model).
    Identity,
    /// The byte survives iff its cell hash is below the threshold; otherwise
    /// it reads as zero.
    KeepBelow {
        /// Survival threshold on the full `u64` hash range.
        threshold: u64,
    },
    /// Each set bit clears iff its per-bit hash is below the threshold.
    ClearBitsBelow {
        /// Clear threshold on the full `u64` hash range.
        threshold: u64,
    },
}

impl DecayCurve {
    /// `true` when applying the curve can never change a byte.
    pub fn is_identity(&self) -> bool {
        match *self {
            DecayCurve::Identity => true,
            DecayCurve::KeepBelow { threshold } => threshold == u64::MAX,
            DecayCurve::ClearBitsBelow { threshold } => threshold == 0,
        }
    }

    /// Applies the curve to one residue byte.  `cell_hash` is the
    /// [`cell_hash`] draw of the byte's (stripe, offset) coordinates.
    pub fn apply(&self, raw: u8, cell_hash: u64) -> u8 {
        if raw == 0 {
            return 0;
        }
        match *self {
            DecayCurve::Identity => raw,
            DecayCurve::KeepBelow { threshold } => {
                if cell_hash < threshold {
                    raw
                } else {
                    0
                }
            }
            DecayCurve::ClearBitsBelow { threshold } => {
                raw & !cleared_bits(&bit_draws(cell_hash), threshold)
            }
        }
    }
}

/// The eight per-bit draws of [`DecayCurve::ClearBitsBelow`].  Every bit
/// draws, set or not: eight draws with no branch on the residue's bits run
/// several times faster than testing each bit first.
fn bit_draws(cell_hash: u64) -> [u64; 8] {
    std::array::from_fn(|bit| {
        splitmix64(cell_hash.wrapping_add((bit as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)))
    })
}

/// The bits whose draw falls below `threshold`.
fn cleared_bits(draws: &[u64; 8], threshold: u64) -> u8 {
    (0u8..).zip(draws).fold(0, |clear, (bit, &draw)| {
        clear | u8::from(draw < threshold) << bit
    })
}

/// The decay view of `raw`, from offset `first` of a stripe whose
/// [`stripe_hash`] is `stripe_draw`, at several ticks: `masks` gets one row
/// of `raw.len()` masks per curve (one model resolved at consecutive ticks),
/// mask `j` of row `i` being the `m` with `curves[i].apply(raw[j], h) ==
/// raw[j] & m` (unspecified for zero bytes); `raw` is not empty.  Each byte's cell hash, kept in
/// `hashes`, and under bit-flip decay its eight bit draws are computed once
/// for all ticks, and each kind has its own loop.
pub(crate) fn decay_masks(
    raw: &[u8],
    stripe_draw: u64,
    first: u64,
    curves: &[DecayCurve],
    hashes: &mut Vec<u64>,
    masks: &mut Vec<u8>,
) {
    hashes.clear();
    hashes.extend((first..).zip(raw).map(|(offset, &byte)| match byte {
        0 => 0,
        _ => cell_hash_in_stripe(stripe_draw, offset),
    }));
    masks.resize(raw.len() * curves.len(), 0);
    let rows = masks.chunks_exact_mut(raw.len()).zip(curves);
    if !curves
        .iter()
        .any(|c| matches!(c, DecayCurve::ClearBitsBelow { .. }))
    {
        for (row, curve) in rows {
            let DecayCurve::KeepBelow { threshold } = *curve else {
                row.fill(0xFF);
                continue;
            };
            for (mask, &hash) in row.iter_mut().zip(hashes.iter()) {
                *mask = u8::from(hash < threshold).wrapping_neg();
            }
        }
        return;
    }
    for (j, (&byte, &hash)) in raw.iter().zip(hashes.iter()).enumerate() {
        if byte == 0 {
            continue;
        }
        let draws = bit_draws(hash);
        for (row, curve) in masks.chunks_exact_mut(raw.len()).zip(curves) {
            // The identity clears nothing: a zero threshold.
            let threshold = match *curve {
                DecayCurve::ClearBitsBelow { threshold } => threshold,
                _ => 0,
            };
            if let Some(mask) = row.get_mut(j) {
                *mask = !cleared_bits(&draws, threshold);
            }
        }
    }
}

/// Number of non-zero bytes in `bytes`.  Each chunk of at most 255 bytes is
/// summed in a `u8`, which cannot overflow and which LLVM compiles to
/// byte-wide vector compares.
pub(crate) fn nonzero_bytes(bytes: &[u8]) -> u64 {
    bytes
        .chunks(255)
        .map(|chunk| u64::from(chunk.iter().map(|&b| u8::from(b != 0)).sum::<u8>()))
        .sum()
}

/// Residue-fidelity measurement of one owner's residue frames: how much of
/// the raw residue the decay view still exposes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidueDecay {
    /// Non-zero residue bytes in the raw (pre-decay) store.
    pub raw_bytes: u64,
    /// Of those, bytes still reading non-zero through the decay view.
    pub surviving_bytes: u64,
    /// Total bits that differ between the raw residue and its decayed view.
    pub bits_flipped: u64,
}

impl ResidueDecay {
    /// Adds residue bytes `raw` as the decay view reads them, `read` (the
    /// same length).  Decay only clears bits, so a byte survives iff it
    /// reads non-zero, and the flipped bits are the set bits of
    /// `raw ^ read`.
    pub(crate) fn tally(&mut self, raw: &[u8], read: &[u8]) {
        debug_assert_eq!(raw.len(), read.len());
        self.raw_bytes += nonzero_bytes(raw);
        self.surviving_bytes += nonzero_bytes(read);
        let ((raw_words, raw_tail), (read_words, read_tail)) =
            (raw.as_chunks::<8>(), read.as_chunks::<8>());
        for (r, s) in raw_words.iter().zip(read_words) {
            self.bits_flipped +=
                u64::from((u64::from_le_bytes(*r) ^ u64::from_le_bytes(*s)).count_ones());
        }
        for (r, s) in raw_tail.iter().zip(read_tail) {
            self.bits_flipped += u64::from((r ^ s).count_ones());
        }
    }

    /// Fraction of raw residue bytes still readable (1.0 when there is no
    /// residue at all — nothing existed, so nothing was lost).
    pub fn survival_rate(&self) -> f64 {
        if self.raw_bytes == 0 {
            1.0
        } else {
            self.surviving_bytes as f64 / self.raw_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_model_is_always_identity() {
        let m = RemanenceModel::Perfect;
        assert!(m.is_perfect());
        for elapsed in [0u64, 1, 10, 1_000_000] {
            let curve = m.curve(elapsed);
            assert!(curve.is_identity());
            for raw in [0u8, 1, 0x5A, 0xFF] {
                assert_eq!(curve.apply(raw, 0xDEAD_BEEF), raw);
            }
        }
    }

    #[test]
    fn zero_elapsed_is_identity_for_every_model() {
        for model in [
            RemanenceModel::Exponential { half_life_ticks: 4 },
            RemanenceModel::BitFlip { rate_ppm: 500_000 },
        ] {
            assert_eq!(model.curve(0), DecayCurve::Identity);
        }
    }

    #[test]
    fn exponential_half_life_halves_the_survivors() {
        let model = RemanenceModel::Exponential { half_life_ticks: 8 };
        let curve = model.curve(8);
        let survivors = (0..100_000u64)
            .filter(|i| curve.apply(0xEE, splitmix64(*i)) != 0)
            .count();
        // One half-life elapsed: ~50% survival.
        assert!((45_000..55_000).contains(&survivors), "{survivors}");
        // Zero half-life: instant decay after the first tick.
        let instant = RemanenceModel::Exponential { half_life_ticks: 0 }.curve(1);
        assert_eq!(instant.apply(0xEE, 12345), 0);
    }

    #[test]
    fn bitflip_clears_roughly_rate_fraction_of_set_bits() {
        let model = RemanenceModel::BitFlip { rate_ppm: 250_000 };
        let curve = model.curve(1);
        let mut set = 0u64;
        let mut cleared = 0u64;
        for i in 0..20_000u64 {
            let raw = 0xFFu8;
            let decayed = curve.apply(raw, splitmix64(i));
            set += 8;
            cleared += (raw ^ decayed).count_ones() as u64;
        }
        let rate = cleared as f64 / set as f64;
        assert!((0.22..0.28).contains(&rate), "{rate}");
    }

    #[test]
    fn decay_is_monotone_in_elapsed_ticks() {
        // For every model, surviving information at a later tick is a bitwise
        // subset of the survivors at an earlier tick — for the same cell.
        for model in [
            RemanenceModel::Exponential { half_life_ticks: 3 },
            RemanenceModel::BitFlip { rate_ppm: 120_000 },
        ] {
            for cell in 0..2_000u64 {
                let hash = splitmix64(cell);
                let mut previous = 0xB7u8;
                for elapsed in [0u64, 1, 2, 5, 13, 64, 1000] {
                    let now = model.curve(elapsed).apply(0xB7, hash);
                    assert_eq!(now & previous, now, "{model} cell {cell} @{elapsed}");
                    previous = now;
                }
            }
        }
    }

    #[test]
    fn decay_never_creates_bits() {
        for model in [
            RemanenceModel::Exponential { half_life_ticks: 2 },
            RemanenceModel::BitFlip { rate_ppm: 900_000 },
        ] {
            for cell in 0..1_000u64 {
                let hash = cell_hash(7, cell, cell * 3);
                for raw in [0u8, 0x01, 0x80, 0x5A] {
                    let decayed = model.curve(9).apply(raw, hash);
                    assert_eq!(decayed & raw, decayed);
                }
                assert_eq!(model.curve(9).apply(0, hash), 0);
            }
        }
    }

    #[test]
    fn saturated_exponential_survival_is_the_explicit_identity() {
        // Regression: a huge half-life at a small elapsed-tick count rounds
        // the survival probability up to 1.0, and the saturating f64→u64
        // cast used to produce `KeepBelow { threshold: u64::MAX }` — which
        // `is_identity()` called inert while `apply()` still zeroed a byte
        // whose cell hash was exactly `u64::MAX`.
        let model = RemanenceModel::Exponential {
            half_life_ticks: u64::MAX,
        };
        let curve = model.curve(1);
        assert_eq!(curve, DecayCurve::Identity);
        assert!(curve.is_identity());
        assert_eq!(curve.apply(0xA5, u64::MAX), 0xA5);
        // The old buggy curve shape disagreed with its own identity claim.
        let stale = DecayCurve::KeepBelow {
            threshold: u64::MAX,
        };
        assert!(stale.is_identity());
    }

    proptest::proptest! {
        #[test]
        fn prop_identity_curves_never_change_a_byte(
            half_life in 1u64..u64::MAX,
            elapsed in 0u64..1_000,
            raw in proptest::prelude::any::<u8>(),
            hash in proptest::prelude::any::<u64>(),
        ) {
            for model in [
                RemanenceModel::Perfect,
                RemanenceModel::Exponential { half_life_ticks: half_life },
                RemanenceModel::BitFlip { rate_ppm: half_life % 1_000_001 },
            ] {
                let curve = model.curve(elapsed);
                if curve.is_identity() {
                    proptest::prop_assert_eq!(curve.apply(raw, hash), raw);
                    proptest::prop_assert_eq!(curve.apply(raw, u64::MAX), raw);
                }
            }
        }
    }

    #[test]
    fn cell_hash_depends_on_every_coordinate() {
        let a = cell_hash(1, 2, 3);
        assert_ne!(a, cell_hash(2, 2, 3));
        assert_ne!(a, cell_hash(1, 3, 3));
        assert_ne!(a, cell_hash(1, 2, 4));
        assert_eq!(a, cell_hash(1, 2, 3));
    }

    proptest::proptest! {
        /// The stripe half, computed once, composes with the per-cell half
        /// to the pinned draw (the two-round formula, spelled out) for any
        /// coordinates, so hoisting it out of a read changes no draw.
        #[test]
        fn prop_stripe_hash_composes_to_cell_hash(
            seed in proptest::prelude::any::<u64>(),
            stripe in proptest::prelude::any::<u64>(),
            offset in proptest::prelude::any::<u64>(),
        ) {
            let h = splitmix64(seed ^ stripe.wrapping_mul(0xA24B_AED4_963E_E407));
            let pinned = splitmix64(h ^ offset.wrapping_mul(0x9FB2_1C65_1E98_DF25));
            let stripe_draw = stripe_hash(seed, stripe);
            proptest::prop_assert_eq!(cell_hash_in_stripe(stripe_draw, offset), pinned);
            proptest::prop_assert_eq!(cell_hash(seed, stripe, offset), pinned);
        }
    }

    proptest::proptest! {
        /// The chunked count equals the byte-at-a-time count at any length
        /// and alignment, and the tally of a decayed read (a subset of the
        /// raw bits) equals the zipped per-byte comparison.
        #[test]
        fn prop_nonzero_count_and_tally_match_the_naive_count(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..1200),
            zero_below in proptest::prelude::any::<u8>(),
            skip in 0usize..9,
            mask_seed in proptest::prelude::any::<u64>(),
        ) {
            let raw: Vec<u8> = bytes
                .iter()
                .skip(skip)
                .map(|&b| if b < zero_below { 0 } else { b })
                .collect();
            let naive = raw.iter().filter(|&&b| b != 0).count() as u64;
            proptest::prop_assert_eq!(nonzero_bytes(&raw), naive);
            let read: Vec<u8> = (0u64..)
                .zip(&raw)
                .map(|(i, &b)| b & splitmix64(mask_seed ^ i) as u8)
                .collect();
            let mut want = ResidueDecay::default();
            for (&r, &s) in raw.iter().zip(&read) {
                want.raw_bytes += u64::from(r != 0);
                want.surviving_bytes += u64::from(s != 0);
                want.bits_flipped += u64::from(r.count_ones() - s.count_ones());
            }
            let mut got = ResidueDecay::default();
            got.tally(&raw, &read);
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn display_and_metadata() {
        assert_eq!(RemanenceModel::default(), RemanenceModel::Perfect);
        assert_eq!(RemanenceModel::Perfect.to_string(), "perfect");
        assert_eq!(
            RemanenceModel::Exponential { half_life_ticks: 4 }.to_string(),
            "exponential(hl=4)"
        );
        assert_eq!(
            RemanenceModel::BitFlip { rate_ppm: 250_000 }.to_string(),
            "bitflip(250000ppm)"
        );
        assert_eq!(RemanenceModel::Perfect.name(), "perfect");
        assert_eq!(
            RemanenceModel::Exponential { half_life_ticks: 1 }.name(),
            "exponential"
        );
        assert_eq!(RemanenceModel::BitFlip { rate_ppm: 1 }.name(), "bitflip");
    }

    #[test]
    fn residue_decay_survival_rate() {
        let none = ResidueDecay::default();
        assert_eq!(none.survival_rate(), 1.0);
        let half = ResidueDecay {
            raw_bytes: 100,
            surviving_bytes: 50,
            bits_flipped: 220,
        };
        assert_eq!(half.survival_rate(), 0.5);
    }
}
