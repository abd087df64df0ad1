//! End-of-process memory sanitization policies.
//!
//! The paper's root cause is that PetaLinux applies **no** sanitization to the
//! physical frames of a terminated process.  Its related-work section surveys
//! proposed fixes — RowClone-style bulk zeroing of contiguous DRAM, RowReset
//! bank initialization, and points out that in multi-tenant settings with
//! non-contiguous allocations these can clobber *active* guests' data.  This
//! module implements the whole family so the defense experiments (TAB-B,
//! TAB-F) can quantify the trade-off:
//!
//! | Policy | Clears | Cost | Collateral risk |
//! |---|---|---|---|
//! | [`SanitizePolicy::None`] | nothing | zero | leaves all residue (the vulnerable default) |
//! | [`SanitizePolicy::ZeroOnFree`] | exactly the freed frames | CPU stores per byte | none |
//! | [`SanitizePolicy::RowClone`] | the contiguous row-aligned span covering all freed frames | per-row in-DRAM copy (fast) | clears interleaved live data |
//! | [`SanitizePolicy::RowReset`] | every bank touched by a freed frame | per-bank reset (fastest) | clears whole banks of live data |
//! | [`SanitizePolicy::SelectiveScrub`] | exactly the freed frames, row-burst granularity | per-row activation + per-word store | none (the paper's "needed solution") |
//! | [`SanitizePolicy::Background`] | freed frames, but only after a delay | same as selective, deferred | leaves a vulnerability window |
//!
//! Sanitizers operate on the **raw** store, beneath the remanence decay view
//! ([`crate::remanence::RemanenceModel`]): a scrub clears the same bytes,
//! charges the same cycles and reports the same collateral whether the
//! residue had analog-decayed or not, and scrubbing a frame closes its decay
//! epoch (there is nothing left to decay).  The zero-ownership pass uses raw
//! bytes too, so a decayed-to-zero *view* never silently drops a frame's
//! attribution while its cells still hold recoverable charge.

// Lint audit: address arithmetic here is bounds-checked against the
// DRAM window before any narrowing cast or direct index; offsets are
// derived from validated window-relative coordinates.
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use std::fmt;

use crate::addr::{FrameNumber, PhysAddr, PAGE_SIZE};
use crate::device::{Dram, OwnerTag};
use crate::mapping::DdrMapping;

/// Cycle-cost constants of the sanitization cost model.
///
/// The absolute values are calibrated to the relative magnitudes reported in
/// the RowClone and In-DRAM Data Initialization papers (bulk in-DRAM
/// operations are one to two orders of magnitude cheaper per byte than CPU
/// stores); only the relative ordering matters for the reproduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SanitizeCost {
    /// CPU cycles to store one byte of zeros from the core.
    pub cpu_store_per_byte: f64,
    /// Fixed CPU cycles of bookkeeping per freed frame.
    pub per_frame_overhead: f64,
    /// Cycles for one RowClone in-DRAM row initialization.
    pub rowclone_per_row: f64,
    /// Cycles for one RowReset bank initialization.
    pub rowreset_per_bank: f64,
    /// Cycles to activate a row before a burst of CPU stores.
    pub row_activate: f64,
}

impl Default for SanitizeCost {
    fn default() -> Self {
        SanitizeCost {
            cpu_store_per_byte: 0.25,
            per_frame_overhead: 30.0,
            rowclone_per_row: 100.0,
            rowreset_per_bank: 1500.0,
            row_activate: 20.0,
        }
    }
}

/// The sanitization policy a kernel applies when a process terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[derive(Default)]
pub enum SanitizePolicy {
    /// No sanitization (PetaLinux's vulnerable default).
    #[default]
    None,
    /// Zero every freed frame synchronously with CPU stores.
    ZeroOnFree,
    /// RowClone-style bulk zeroing of the contiguous row-aligned span covering
    /// all freed frames.
    RowClone,
    /// RowReset-style initialization of every DRAM bank touched by a freed
    /// frame.
    RowReset,
    /// Zero exactly the freed frames using row-granular bursts
    /// (the non-contiguous-aware scheme the paper calls for).
    SelectiveScrub,
    /// Defer scrubbing of freed frames by `delay_ticks` kernel ticks.
    Background {
        /// Number of kernel ticks before the freed frames are scrubbed.
        delay_ticks: u64,
    },
    /// Destroy the terminated owner's compressed swap slots
    /// ([`crate::swap::SwapStore`]) but leave its DRAM frames as residue —
    /// the ablation that isolates the swap channel.
    SwapScrub,
    /// Zero every freed frame *and* destroy the owner's swap slots: the
    /// two-substrate-aware scheme the swap experiments call for.  Frame-only
    /// scrubbing (plain [`SanitizePolicy::ZeroOnFree`]) leaves the compressed
    /// store fully recoverable.
    ZeroOnFreeSwap,
}

impl SanitizePolicy {
    /// All non-parameterized policies, in the order used by the defense table.
    pub fn all_basic() -> [SanitizePolicy; 5] {
        [
            SanitizePolicy::None,
            SanitizePolicy::ZeroOnFree,
            SanitizePolicy::RowClone,
            SanitizePolicy::RowReset,
            SanitizePolicy::SelectiveScrub,
        ]
    }

    /// Short name used in report tables.
    pub fn name(&self) -> &'static str {
        match self {
            SanitizePolicy::None => "none",
            SanitizePolicy::ZeroOnFree => "zero-on-free",
            SanitizePolicy::RowClone => "rowclone",
            SanitizePolicy::RowReset => "rowreset",
            SanitizePolicy::SelectiveScrub => "selective-scrub",
            SanitizePolicy::Background { .. } => "background-scrub",
            SanitizePolicy::SwapScrub => "swap-scrub",
            SanitizePolicy::ZeroOnFreeSwap => "zero-on-free+swap",
        }
    }

    /// Returns `true` if this policy can clear data belonging to other live
    /// owners (the multi-tenant hazard the paper highlights).
    pub fn has_collateral_risk(&self) -> bool {
        matches!(self, SanitizePolicy::RowClone | SanitizePolicy::RowReset)
    }

    /// Returns `true` if this policy destroys the terminated owner's
    /// compressed swap slots in addition to (or instead of) its frames.
    pub fn scrubs_swap(&self) -> bool {
        matches!(
            self,
            SanitizePolicy::SwapScrub | SanitizePolicy::ZeroOnFreeSwap
        )
    }

    /// Applies the policy to the frames freed by `terminated` owner.
    ///
    /// `freed` is the set of frames the terminating process owned.  The report
    /// records what was cleared immediately, what was deferred, the modelled
    /// cycle cost, and any collateral damage to other live owners' frames.
    ///
    /// # Panics
    ///
    /// Panics if a freed frame lies outside the DRAM window (the kernel only
    /// ever frees frames it previously allocated from the window).
    pub fn apply(
        &self,
        dram: &mut Dram,
        terminated: OwnerTag,
        freed: &[FrameNumber],
        cost: &SanitizeCost,
    ) -> ScrubReport {
        let mut report = ScrubReport::new(*self, terminated, freed.len());
        // Termination retires *both* substrates: the frames become residue
        // and the owner's compressed swap slots become swap residue.  Only
        // the swap-aware policies then destroy the slots.
        dram.retire_owner(terminated);
        dram.swap_store_mut().retire_owner(terminated);
        if self.scrubs_swap() {
            let (slots, bytes) = dram.swap_store_mut().scrub_owner(terminated);
            report.swap_slots_scrubbed = slots;
            report.swap_bytes_scrubbed = bytes;
            report.cost_cycles +=
                slots as f64 * cost.per_frame_overhead + bytes as f64 * cost.cpu_store_per_byte;
        }
        if freed.is_empty() {
            return report;
        }
        let mapping = DdrMapping::new(*dram.config());

        match self {
            SanitizePolicy::None | SanitizePolicy::SwapScrub => {
                // Leave frame residue behind (the owner is already retired);
                // SwapScrub destroyed the swap slots above.
            }
            SanitizePolicy::ZeroOnFree | SanitizePolicy::ZeroOnFreeSwap => {
                for frame in freed {
                    scrub_frame(dram, *frame, &mut report);
                    report.cost_cycles +=
                        cost.per_frame_overhead + PAGE_SIZE as f64 * cost.cpu_store_per_byte;
                }
            }
            SanitizePolicy::RowClone => {
                let (span_start, span_end) = contiguous_span(freed);
                let (row_start, _) = mapping
                    .row_span(span_start)
                    .expect("freed frame outside DRAM window");
                let row_bytes = dram.config().geometry().row_bytes();
                let mut addr = row_start;
                while addr < span_end {
                    // Whole rows (the RowClone granule), with the final row
                    // clipped to the window like the mapping's spans are.
                    let len = row_bytes.min(dram.config().end().offset_from(addr));
                    scrub_span(dram, addr, len, terminated, &mut report);
                    report.cost_cycles += cost.rowclone_per_row;
                    addr += row_bytes;
                }
            }
            SanitizePolicy::RowReset => {
                let mut banks_done = std::collections::HashSet::new();
                for frame in freed {
                    let base = frame.base_address();
                    let bank = mapping
                        .bank_of(base)
                        .expect("freed frame outside DRAM window");
                    if !banks_done.insert(bank) {
                        continue;
                    }
                    // The mapping clips every span to the window, so the
                    // whole bank enumeration is directly scrubable.
                    for (start, end) in mapping
                        .bank_addresses(base)
                        .expect("freed frame outside DRAM window")
                    {
                        let len = end.offset_from(start);
                        scrub_span(dram, start, len, terminated, &mut report);
                    }
                    report.cost_cycles += cost.rowreset_per_bank;
                    report.banks_reset += 1;
                }
            }
            SanitizePolicy::SelectiveScrub => {
                let row_bytes = dram.config().geometry().row_bytes();
                let rows_per_frame = (PAGE_SIZE / row_bytes).max(1);
                for frame in freed {
                    scrub_frame(dram, *frame, &mut report);
                    report.cost_cycles += cost.per_frame_overhead
                        + rows_per_frame as f64 * cost.row_activate
                        + PAGE_SIZE as f64 * cost.cpu_store_per_byte;
                }
            }
            SanitizePolicy::Background { .. } => {
                report.deferred_frames = freed.to_vec();
            }
        }
        report
    }
}

impl fmt::Display for SanitizePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SanitizePolicy::Background { delay_ticks } => {
                write!(f, "background-scrub(delay={delay_ticks})")
            }
            other => f.write_str(other.name()),
        }
    }
}

/// Outcome of applying a [`SanitizePolicy`] at process termination.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrubReport {
    /// The policy that produced this report.
    pub policy: SanitizePolicy,
    /// The terminated owner whose frames were freed.
    pub terminated: OwnerTag,
    /// Number of frames the terminating process owned.
    pub frames_freed: usize,
    /// Bytes cleared immediately.
    pub bytes_scrubbed: u64,
    /// Bytes cleared that belonged to *other, live* owners (collateral).
    pub collateral_bytes: u64,
    /// Frames of other live owners that lost data.
    pub collateral_frames: usize,
    /// Number of DRAM banks reset (RowReset only).
    pub banks_reset: usize,
    /// Modelled cycle cost of the sanitization work.
    pub cost_cycles: f64,
    /// Frames whose scrubbing was deferred (background policy only).
    pub deferred_frames: Vec<FrameNumber>,
    /// Compressed swap slots destroyed (swap-aware policies only).
    pub swap_slots_scrubbed: usize,
    /// Uncompressed bytes those slots held.
    pub swap_bytes_scrubbed: u64,
}

impl ScrubReport {
    fn new(policy: SanitizePolicy, terminated: OwnerTag, frames_freed: usize) -> Self {
        ScrubReport {
            policy,
            terminated,
            frames_freed,
            bytes_scrubbed: 0,
            collateral_bytes: 0,
            collateral_frames: 0,
            banks_reset: 0,
            cost_cycles: 0.0,
            deferred_frames: Vec::new(),
            swap_slots_scrubbed: 0,
            swap_bytes_scrubbed: 0,
        }
    }

    /// Returns `true` if the policy left the freed frames' contents intact
    /// (immediately after termination).
    pub fn leaves_residue(&self) -> bool {
        self.bytes_scrubbed == 0 && self.frames_freed > 0
    }
}

/// Immediately scrubs a deferred frame set (used by the kernel's background
/// scrubber when a deferred deadline expires).
pub fn scrub_deferred(dram: &mut Dram, frames: &[FrameNumber], cost: &SanitizeCost) -> ScrubReport {
    let mut report = ScrubReport::new(
        SanitizePolicy::Background { delay_ticks: 0 },
        OwnerTag::new(0),
        frames.len(),
    );
    for frame in frames {
        scrub_frame(dram, *frame, &mut report);
        report.cost_cycles += cost.per_frame_overhead + PAGE_SIZE as f64 * cost.cpu_store_per_byte;
    }
    report
}

fn contiguous_span(frames: &[FrameNumber]) -> (PhysAddr, PhysAddr) {
    let min = frames.iter().min().expect("non-empty");
    let max = frames.iter().max().expect("non-empty");
    (min.base_address(), max.base_address() + PAGE_SIZE)
}

fn scrub_frame(dram: &mut Dram, frame: FrameNumber, report: &mut ScrubReport) {
    let base = frame.base_address();
    dram.scrub_range(base, PAGE_SIZE)
        .expect("freed frame outside DRAM window");
    report.bytes_scrubbed += PAGE_SIZE;
}

fn scrub_span(
    dram: &mut Dram,
    start: PhysAddr,
    len: u64,
    terminated: OwnerTag,
    report: &mut ScrubReport,
) {
    // Account collateral before clearing: any frame in the span owned by a
    // different, still-live owner loses its data.
    let mut addr = start.align_down();
    let end = start + len;
    while addr < end {
        if let Some(rec) = dram.frame_ownership(addr.frame_number()) {
            if rec.owner != terminated && rec.live {
                report.collateral_frames += 1;
                report.collateral_bytes += PAGE_SIZE;
            }
        }
        addr += PAGE_SIZE;
    }
    dram.scrub_range(start, len)
        .expect("scrub span outside DRAM window");
    report.bytes_scrubbed += len;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    fn setup() -> (Dram, OwnerTag, Vec<FrameNumber>) {
        let mut dram = Dram::new(DramConfig::tiny_for_tests());
        let victim = OwnerTag::new(1391);
        let base = dram.config().base();
        // Victim owns three non-contiguous frames filled with a marker.
        let frames: Vec<FrameNumber> = [0u64, 2, 5]
            .iter()
            .map(|i| (base + i * PAGE_SIZE).frame_number())
            .collect();
        for f in &frames {
            dram.fill(f.base_address(), PAGE_SIZE, 0xFF, victim)
                .unwrap();
        }
        (dram, victim, frames)
    }

    #[test]
    fn none_policy_leaves_all_residue() {
        let (mut dram, victim, frames) = setup();
        let report =
            SanitizePolicy::None.apply(&mut dram, victim, &frames, &SanitizeCost::default());
        assert!(report.leaves_residue());
        assert_eq!(report.cost_cycles, 0.0);
        assert_eq!(dram.read_u8(frames[0].base_address()).unwrap(), 0xFF);
        assert_eq!(dram.residue_frames().count(), 3);
    }

    #[test]
    fn zero_on_free_clears_exactly_the_freed_frames() {
        let (mut dram, victim, frames) = setup();
        // A live neighbour between the victim's frames.
        let other = OwnerTag::new(2000);
        let neighbour = dram.config().base() + PAGE_SIZE;
        dram.fill(neighbour, PAGE_SIZE, 0xAB, other).unwrap();

        let report =
            SanitizePolicy::ZeroOnFree.apply(&mut dram, victim, &frames, &SanitizeCost::default());
        assert_eq!(report.bytes_scrubbed, 3 * PAGE_SIZE);
        assert_eq!(report.collateral_bytes, 0);
        assert!(report.cost_cycles > 0.0);
        for f in &frames {
            assert_eq!(dram.read_u8(f.base_address()).unwrap(), 0);
        }
        // Neighbour untouched.
        assert_eq!(dram.read_u8(neighbour).unwrap(), 0xAB);
    }

    #[test]
    fn rowclone_clears_contiguous_span_including_live_neighbours() {
        let (mut dram, victim, frames) = setup();
        let other = OwnerTag::new(2000);
        let neighbour = dram.config().base() + PAGE_SIZE; // between frame 0 and 2
        dram.fill(neighbour, PAGE_SIZE, 0xAB, other).unwrap();

        let report =
            SanitizePolicy::RowClone.apply(&mut dram, victim, &frames, &SanitizeCost::default());
        // The whole [frame0, frame5] span is cleared, collateral recorded.
        assert!(report.collateral_bytes >= PAGE_SIZE);
        assert!(report.collateral_frames >= 1);
        assert_eq!(dram.read_u8(neighbour).unwrap(), 0);
        for f in &frames {
            assert_eq!(dram.read_u8(f.base_address()).unwrap(), 0);
        }
    }

    #[test]
    fn rowclone_is_cheaper_per_byte_than_zero_on_free() {
        let (mut dram_a, victim, frames) = setup();
        let report_zero = SanitizePolicy::ZeroOnFree.apply(
            &mut dram_a,
            victim,
            &frames,
            &SanitizeCost::default(),
        );
        let (mut dram_b, victim_b, frames_b) = setup();
        let report_rc = SanitizePolicy::RowClone.apply(
            &mut dram_b,
            victim_b,
            &frames_b,
            &SanitizeCost::default(),
        );
        let zero_per_byte = report_zero.cost_cycles / report_zero.bytes_scrubbed as f64;
        let rc_per_byte = report_rc.cost_cycles / report_rc.bytes_scrubbed as f64;
        assert!(
            rc_per_byte < zero_per_byte,
            "rowclone {rc_per_byte} should be cheaper per byte than zero-on-free {zero_per_byte}"
        );
    }

    #[test]
    fn rowreset_resets_banks_and_has_largest_collateral() {
        let (mut dram, victim, frames) = setup();
        let other = OwnerTag::new(2000);
        // Live data far away but (by construction of the tiny window) in the
        // same bank as a freed frame.
        let far = dram.config().base() + 9 * PAGE_SIZE;
        dram.fill(far, PAGE_SIZE, 0xAB, other).unwrap();

        let report =
            SanitizePolicy::RowReset.apply(&mut dram, victim, &frames, &SanitizeCost::default());
        assert!(report.banks_reset >= 1);
        for f in &frames {
            assert_eq!(dram.read_u8(f.base_address()).unwrap(), 0);
        }
        // In the tiny 16 MiB window every frame shares the small set of banks,
        // so the far-away live page is collateral.
        assert!(report.collateral_bytes >= PAGE_SIZE);
        assert_eq!(dram.read_u8(far).unwrap(), 0);
    }

    #[test]
    fn selective_scrub_has_no_collateral() {
        let (mut dram, victim, frames) = setup();
        let other = OwnerTag::new(2000);
        let neighbour = dram.config().base() + PAGE_SIZE;
        dram.fill(neighbour, PAGE_SIZE, 0xAB, other).unwrap();

        let report = SanitizePolicy::SelectiveScrub.apply(
            &mut dram,
            victim,
            &frames,
            &SanitizeCost::default(),
        );
        assert_eq!(report.collateral_bytes, 0);
        assert_eq!(report.bytes_scrubbed, 3 * PAGE_SIZE);
        assert_eq!(dram.read_u8(neighbour).unwrap(), 0xAB);
    }

    #[test]
    fn background_defers_scrubbing() {
        let (mut dram, victim, frames) = setup();
        let report = SanitizePolicy::Background { delay_ticks: 10 }.apply(
            &mut dram,
            victim,
            &frames,
            &SanitizeCost::default(),
        );
        assert!(report.leaves_residue());
        assert_eq!(report.deferred_frames.len(), 3);
        // Residue still readable during the window.
        assert_eq!(dram.read_u8(frames[0].base_address()).unwrap(), 0xFF);

        // Later, the kernel scrubs the deferred set.
        let done = scrub_deferred(&mut dram, &report.deferred_frames, &SanitizeCost::default());
        assert_eq!(done.bytes_scrubbed, 3 * PAGE_SIZE);
        assert_eq!(dram.read_u8(frames[0].base_address()).unwrap(), 0);
    }

    #[test]
    fn sanitizers_are_remanence_independent() {
        // A policy applied under a decaying remanence model produces the
        // identical report (bytes, cost, collateral) as under the perfect
        // model — scrubbing works on the raw store — and it closes the decay
        // epoch of everything it clears.
        use crate::remanence::RemanenceModel;
        for policy in SanitizePolicy::all_basic() {
            let (mut perfect_dram, victim, frames) = setup();
            let (mut decayed_dram, victim_d, frames_d) = setup();
            decayed_dram.set_remanence(RemanenceModel::Exponential { half_life_ticks: 1 });
            decayed_dram.set_remanence_seed(11);
            decayed_dram.retire_owner(victim_d);
            decayed_dram.advance_remanence(10);
            // The decayed *view* is mostly gone, but the raw residue the
            // sanitizer must clear is fully intact.
            assert_eq!(decayed_dram.residue_bytes(), 3 * PAGE_SIZE);

            let a = policy.apply(&mut perfect_dram, victim, &frames, &SanitizeCost::default());
            let b = policy.apply(
                &mut decayed_dram,
                victim_d,
                &frames_d,
                &SanitizeCost::default(),
            );
            assert_eq!(a, b, "{policy} report must not depend on remanence");
            // Frame-exact and span policies clear everything; RowReset is
            // bank-granular and leaves the other bank groups' columns (its
            // known partial-stripe behavior, pinned by the defense sweeps).
            if matches!(
                policy,
                SanitizePolicy::ZeroOnFree
                    | SanitizePolicy::RowClone
                    | SanitizePolicy::SelectiveScrub
            ) {
                assert_eq!(decayed_dram.residue_decay(None).raw_bytes, 0, "{policy}");
            }
        }
    }

    #[test]
    fn empty_free_list_is_a_noop() {
        let mut dram = Dram::new(DramConfig::tiny_for_tests());
        let report = SanitizePolicy::ZeroOnFree.apply(
            &mut dram,
            OwnerTag::new(1),
            &[],
            &SanitizeCost::default(),
        );
        assert_eq!(report.bytes_scrubbed, 0);
        assert_eq!(report.frames_freed, 0);
        assert!(!report.leaves_residue());
    }

    #[test]
    fn policy_metadata() {
        assert_eq!(SanitizePolicy::all_basic().len(), 5);
        assert!(SanitizePolicy::RowClone.has_collateral_risk());
        assert!(SanitizePolicy::RowReset.has_collateral_risk());
        assert!(!SanitizePolicy::SelectiveScrub.has_collateral_risk());
        assert_eq!(SanitizePolicy::default(), SanitizePolicy::None);
        assert_eq!(SanitizePolicy::None.to_string(), "none");
        assert_eq!(
            SanitizePolicy::Background { delay_ticks: 4 }.to_string(),
            "background-scrub(delay=4)"
        );
        assert_eq!(SanitizePolicy::SwapScrub.to_string(), "swap-scrub");
        assert_eq!(
            SanitizePolicy::ZeroOnFreeSwap.to_string(),
            "zero-on-free+swap"
        );
        assert!(SanitizePolicy::SwapScrub.scrubs_swap());
        assert!(SanitizePolicy::ZeroOnFreeSwap.scrubs_swap());
        assert!(!SanitizePolicy::ZeroOnFree.scrubs_swap());
        assert!(!SanitizePolicy::SwapScrub.has_collateral_risk());
        assert!(!SanitizePolicy::ZeroOnFreeSwap.has_collateral_risk());
    }

    #[test]
    fn frame_only_policies_leave_the_swap_store_recoverable() {
        let (mut dram, victim, frames) = setup();
        dram.swap_store_mut().swap_out(victim, 0, &[0xEE; 4096]);
        let report =
            SanitizePolicy::ZeroOnFree.apply(&mut dram, victim, &frames, &SanitizeCost::default());
        assert_eq!(report.swap_slots_scrubbed, 0);
        // Frames are gone, but the compressed slot became residue and yields
        // the whole page — the leak channel the swap-aware policies close.
        assert_eq!(dram.residue_bytes(), 0);
        assert_eq!(dram.swap_store().residue_bytes(Some(victim)), 4096);
    }

    #[test]
    fn swap_aware_policies_destroy_the_slots() {
        // ZeroOnFreeSwap clears both substrates; SwapScrub clears only swap.
        let (mut dram, victim, frames) = setup();
        dram.swap_store_mut().swap_out(victim, 0, &[0xEE; 4096]);
        let report = SanitizePolicy::ZeroOnFreeSwap.apply(
            &mut dram,
            victim,
            &frames,
            &SanitizeCost::default(),
        );
        assert_eq!(report.swap_slots_scrubbed, 1);
        assert_eq!(report.swap_bytes_scrubbed, 4096);
        assert_eq!(report.bytes_scrubbed, 3 * PAGE_SIZE);
        assert_eq!(dram.residue_bytes(), 0);
        assert_eq!(dram.swap_store().residue_bytes(None), 0);

        let (mut dram, victim, frames) = setup();
        dram.swap_store_mut().swap_out(victim, 1, &[0xAA; 4096]);
        let report =
            SanitizePolicy::SwapScrub.apply(&mut dram, victim, &frames, &SanitizeCost::default());
        assert_eq!(report.swap_slots_scrubbed, 1);
        assert!(report.leaves_residue(), "frames must survive SwapScrub");
        assert_eq!(dram.residue_bytes(), 3 * PAGE_SIZE);
        assert_eq!(dram.swap_store().residue_bytes(None), 0);
        assert!(report.cost_cycles > 0.0);
    }
}
