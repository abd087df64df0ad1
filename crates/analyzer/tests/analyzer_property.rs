//! Agreement between the static analyzer and the defense-evaluation sweeps,
//! plus sampled totality properties over arbitrary scenario shapes.
//!
//! The exhaustive tests run each shipped `msa_core::defense` sweep once
//! (cached — the sweeps are real campaigns) and check every row against the
//! verdict the analyzer issues for the same shape: a channel judged
//! `Scrubbed` must measure zero in the row, `Leaks` must measure positive,
//! and — because the sweeps run under perfect remanence, where no
//! `DecayBounded` verdict can arise on the checked channels — the
//! implications are biconditional.
//!
//! The proptest block then hammers `analyze` with arbitrary shapes (any
//! policy × any schedule × any swap pressure × decaying remanence) to prove
//! totality and the lattice invariants the report relies on.

use std::sync::OnceLock;

use msa_analyzer::{analyze, audited_policies, Channel, ScenarioShape, Verdict};
use msa_core::defense::{self, CowRow, RevivalRow, SwapRow};
use msa_core::{ScrapeMode, VictimSchedule};
use petalinux_sim::BoardConfig;
use proptest::prelude::*;
use vitis_ai_sim::ModelKind;
use zynq_dram::RemanenceModel;

const SWAP_PRESSURE: u8 = msa_analyzer::audit::SWAP_PRESSURE;
const COW_CHILDREN: usize = msa_analyzer::audit::COW_CHILDREN;

fn board() -> BoardConfig {
    BoardConfig::tiny_for_tests()
}

fn swap_rows() -> &'static [SwapRow] {
    static ROWS: OnceLock<Vec<SwapRow>> = OnceLock::new();
    ROWS.get_or_init(|| {
        defense::evaluate_swap(board(), ModelKind::SqueezeNet, SWAP_PRESSURE)
            .expect("swap sweep runs on the permissive tiny board")
    })
}

fn cow_rows() -> &'static [CowRow] {
    static ROWS: OnceLock<Vec<CowRow>> = OnceLock::new();
    ROWS.get_or_init(|| {
        defense::evaluate_cow_retention(board(), ModelKind::SqueezeNet, COW_CHILDREN)
            .expect("cow sweep runs on the permissive tiny board")
    })
}

fn revival_rows() -> &'static [RevivalRow] {
    static ROWS: OnceLock<Vec<RevivalRow>> = OnceLock::new();
    ROWS.get_or_init(|| {
        defense::evaluate_revival(board(), ModelKind::SqueezeNet)
            .expect("revival sweep runs on the permissive tiny board")
    })
}

#[test]
fn verdicts_agree_with_the_swap_sweep_on_every_row() {
    let rows = swap_rows();
    assert_eq!(rows.len(), audited_policies().len());
    for row in rows {
        let analysis = analyze(&ScenarioShape::new(row.policy).with_swap(SWAP_PRESSURE));
        // Perfect remanence + single victim: the swap and frame verdicts
        // are binary, so agreement is an iff on both channels.
        let swap = analysis.channel(Channel::SwapSlots).verdict;
        assert_eq!(
            swap == Verdict::Scrubbed,
            row.swap_resident_bytes == 0,
            "{}: swap verdict {swap} vs {} resident bytes",
            row.policy,
            row.swap_resident_bytes
        );
        assert_ne!(
            swap,
            Verdict::DecayBounded,
            "{}: swap never decays",
            row.policy
        );
        let dram = analysis.channel(Channel::DramFrames).verdict;
        assert_eq!(
            dram == Verdict::Scrubbed,
            row.residue_frames == 0,
            "{}: dram verdict {dram} vs {} residue frames",
            row.policy,
            row.residue_frames
        );
        // The analyzer's scrubs-swap knowledge matches the policy's.
        assert_eq!(row.scrubs_swap, swap == Verdict::Scrubbed);
    }
}

#[test]
fn verdicts_agree_with_the_cow_sweep_on_every_row() {
    let rows = cow_rows();
    assert!(!rows.is_empty());
    for row in rows {
        let analysis = analyze(&ScenarioShape::new(row.policy).with_schedule(
            VictimSchedule::ForkHeavy {
                children: COW_CHILDREN,
            },
        ));
        let cow = analysis.channel(Channel::CowFrames).verdict;
        assert_eq!(
            cow == Verdict::Leaks,
            row.cow_inherited_frames > 0,
            "{}: cow verdict {cow} vs {} inherited frames",
            row.policy,
            row.cow_inherited_frames
        );
        // CoW pinning bypasses every frame-oriented scrubber: the sweep
        // must agree that the channel leaks under all audited policies.
        assert_eq!(cow, Verdict::Leaks, "{}: cow retention leaks", row.policy);
        let dram = analysis.channel(Channel::DramFrames).verdict;
        assert_eq!(
            dram == Verdict::Scrubbed,
            row.victim_frames == row.cow_inherited_frames,
            "{}: dram verdict {dram} vs {} of {} frames pinned",
            row.policy,
            row.cow_inherited_frames,
            row.victim_frames
        );
    }
}

#[test]
fn verdicts_agree_with_the_revival_sweep_on_every_row() {
    let rows = revival_rows();
    assert!(!rows.is_empty());
    for row in rows {
        let analysis = analyze(&ScenarioShape::new(row.policy).with_schedule(
            VictimSchedule::Revival {
                successors: 1,
                reuse_pid: true,
            },
        ));
        let pid = analysis.channel(Channel::PidReuse).verdict;
        assert_eq!(
            pid == Verdict::Scrubbed,
            row.inherited_frames == 0,
            "{}: pid-reuse verdict {pid} vs {} inherited frames",
            row.policy,
            row.inherited_frames
        );
        assert_ne!(
            pid,
            Verdict::DecayBounded,
            "{}: inheritance is binary under perfect remanence",
            row.policy
        );
    }
}

/// Strategy index → one of the shipped schedules (plus the no-event ones,
/// which the analyzer must also handle totally).
fn schedule(index: u8, knob: usize) -> VictimSchedule {
    match index {
        0 => VictimSchedule::Single,
        1 => VictimSchedule::SequentialTraffic {
            predecessors: knob % 5,
        },
        2 => VictimSchedule::MultiTenant {
            active_model: ModelKind::SqueezeNet,
            warmup_pages: knob as u64,
        },
        3 => VictimSchedule::Revival {
            successors: 1 + knob % 3,
            reuse_pid: knob.is_multiple_of(2),
        },
        4 => VictimSchedule::LiveTraffic {
            tenants: 1 + knob % 3,
            churn_rate: knob % 4,
        },
        _ => VictimSchedule::ForkHeavy {
            children: 1 + knob % 4,
        },
    }
}

fn arbitrary_shape(
    policy_index: usize,
    schedule_index: u8,
    knob: usize,
    swap: u8,
    decay: bool,
) -> ScenarioShape {
    let policies = audited_policies();
    let remanence = if decay {
        RemanenceModel::Exponential { half_life_ticks: 1 }
    } else {
        RemanenceModel::Perfect
    };
    let scrape = if knob.is_multiple_of(2) {
        ScrapeMode::ContiguousRange
    } else {
        ScrapeMode::MultiSnapshot {
            snapshots: 1 + knob % 7,
        }
    };
    let policy = policies
        .get(policy_index % policies.len())
        .copied()
        .expect("index reduced modulo len");
    ScenarioShape::new(policy)
        .with_schedule(schedule(schedule_index, knob))
        .with_swap(swap)
        .with_remanence(remanence)
        .with_scrape(scrape)
}

proptest! {
    #[test]
    fn analyze_is_total_and_deterministic(
        policy_index in 0usize..8,
        schedule_index in 0u8..6,
        knob in 0usize..64,
        swap in 0u8..120,
        decay_bit in 0u8..2,
    ) {
        let shape = arbitrary_shape(policy_index, schedule_index, knob, swap, decay_bit == 1);
        let a = analyze(&shape);
        let b = analyze(&shape);
        for (channel, flow) in a.channels() {
            // Deterministic, fully populated, and explained.
            prop_assert_eq!(flow.verdict, b.channel(channel).verdict);
            prop_assert!(!flow.provenance.is_empty());
        }
        // The overall verdict is the lattice join of the channels.
        let join = a
            .channels()
            .map(|(_, flow)| flow.verdict)
            .fold(Verdict::Scrubbed, Verdict::join);
        prop_assert_eq!(a.overall(), join);
        prop_assert_eq!(a.fully_scrubbed(), join == Verdict::Scrubbed);
    }

    #[test]
    fn unexercised_channels_never_accuse(
        policy_index in 0usize..8,
        knob in 0usize..64,
        decay_bit in 0u8..2,
    ) {
        // With no swap, no fork and no revival, only the frame channel can
        // carry residue: the structural channels must be scrubbed.
        let shape = arbitrary_shape(policy_index, 0, knob, 0, decay_bit == 1);
        let analysis = analyze(&shape);
        prop_assert_eq!(analysis.channel(Channel::SwapSlots).verdict, Verdict::Scrubbed);
        prop_assert_eq!(analysis.channel(Channel::CowFrames).verdict, Verdict::Scrubbed);
        prop_assert_eq!(analysis.channel(Channel::PidReuse).verdict, Verdict::Scrubbed);
    }

    #[test]
    fn decay_only_ever_weakens_leaks(
        policy_index in 0usize..8,
        schedule_index in 0u8..6,
        knob in 0usize..64,
        swap in 0u8..120,
    ) {
        // Moving from perfect remanence to a decaying cell can turn a Leaks
        // verdict into DecayBounded, never into Scrubbed, and can never
        // *create* a leak: decay destroys residue, it does not mint it.
        let perfect = analyze(&arbitrary_shape(policy_index, schedule_index, knob, swap, false));
        let decayed = analyze(&arbitrary_shape(policy_index, schedule_index, knob, swap, true));
        for (channel, flow) in perfect.channels() {
            let weakened = decayed.channel(channel).verdict;
            match flow.verdict {
                Verdict::Scrubbed => prop_assert_eq!(weakened, Verdict::Scrubbed),
                _ => prop_assert!(weakened != Verdict::Scrubbed || flow.verdict == Verdict::Scrubbed),
            }
        }
    }
}
