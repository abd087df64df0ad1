//! Property suite: the streaming fold *is* the batch fold.
//!
//! Random axis matrices — 0 to 5 boards crossed with randomly sized model /
//! input / defense / scrape / schedule axes (optional axes randomly absent)
//! — are streamed through the synthetic executor and compared field for
//! field against a serial accumulation over `expand()`: campaign totals and
//! every per-axis `GroupStats`.  Zero-cell matrices must come back as the
//! typed `AttackError::EmptyCampaign` without ever spawning (or hanging)
//! the pool.

// Lint audit: indexes and slice bounds here are established by the
// surrounding length checks / loop invariants before use.
#![allow(clippy::indexing_slicing)]

use fpga_msa::dram::{RemanenceModel, SanitizePolicy};
use fpga_msa::msa::campaign::{CampaignAccumulator, CampaignSpec, InputKind, StreamConfig};
use fpga_msa::msa::scenario::VictimSchedule;
use fpga_msa::msa::{AttackError, ScrapeMode};
use fpga_msa::petalinux::{BoardConfig, IsolationPolicy};
use fpga_msa::vitis::ModelKind;
use proptest::prelude::*;

/// Builds a spec from sampled axis sizes.  `boards` may be zero (an empty
/// board axis is the one legal zero-cell spec); for the optional override
/// axes a zero count means "absent" (inherit the board's own setting),
/// which is how the builder API expresses an empty axis.
#[allow(clippy::too_many_arguments)]
fn spec_from(
    boards: usize,
    models: usize,
    inputs: usize,
    sanitize: usize,
    isolation: usize,
    remanence: usize,
    scrape: usize,
    schedules: usize,
    seed: u64,
) -> CampaignSpec {
    let board_axis = (0..boards)
        .map(|i| (format!("board-{i}"), BoardConfig::tiny_for_tests()))
        .collect();
    let mut spec = CampaignSpec::over_boards(board_axis).with_seed(seed);

    let model_pool = [
        ModelKind::SqueezeNet,
        ModelKind::MobileNetV2,
        ModelKind::EfficientNetLite,
    ];
    spec = spec.with_models(model_pool[..models].to_vec());

    let input_pool = [InputKind::SamplePhoto, InputKind::Corrupted];
    spec = spec.with_inputs(input_pool[..inputs].to_vec());

    let sanitize_pool = [
        SanitizePolicy::None,
        SanitizePolicy::ZeroOnFree,
        SanitizePolicy::SelectiveScrub,
    ];
    if sanitize > 0 {
        spec = spec.with_sanitize_policies(sanitize_pool[..sanitize].to_vec());
    }

    let isolation_pool = [IsolationPolicy::Permissive, IsolationPolicy::Confined];
    if isolation > 0 {
        spec = spec.with_isolation_policies(isolation_pool[..isolation].to_vec());
    }

    let remanence_pool = [
        RemanenceModel::Perfect,
        RemanenceModel::Exponential { half_life_ticks: 2 },
    ];
    if remanence > 0 {
        spec = spec.with_remanence_models(remanence_pool[..remanence].to_vec());
    }

    let scrape_pool = [ScrapeMode::ContiguousRange, ScrapeMode::PerPage];
    spec = spec.with_scrape_modes(scrape_pool[..scrape].to_vec());

    let schedule_pool = [
        VictimSchedule::Single,
        VictimSchedule::Revival {
            successors: 1,
            reuse_pid: true,
        },
        VictimSchedule::LiveTraffic {
            tenants: 1,
            churn_rate: 1,
        },
    ];
    spec = spec.with_schedules(schedule_pool[..schedules].to_vec());

    spec
}

proptest! {
    #[test]
    fn streaming_fold_matches_batch_accumulation(
        boards in 0usize..6,
        models in 1usize..4,
        inputs in 1usize..3,
        sanitize in 0usize..4,
        isolation in 0usize..3,
        remanence in 0usize..3,
        scrape in 1usize..3,
        schedules in 1usize..4,
        workers in 1usize..5,
        block in 1usize..8,
        seed in any::<u64>(),
    ) {
        let spec = spec_from(
            boards, models, inputs, sanitize, isolation, remanence, scrape,
            schedules, seed,
        );
        let config = StreamConfig::default()
            .with_workers(workers)
            .with_block_size(block);
        let streamed = spec.stream_with_executor(
            config,
            |cell| Ok(cell.synthetic_record()),
            |_| Ok(()),
            |_| {},
        );

        if spec.cell_count() == 0 {
            // The empty matrix is refused before the pool spawns, with the
            // typed error — never a hang, never a degenerate summary.
            prop_assert!(matches!(streamed, Err(AttackError::EmptyCampaign)));
            prop_assert!(spec.expand().is_empty());
            continue;
        }

        let summary = streamed.unwrap();

        // Serial reference: materialize the matrix and fold it in index
        // order through the same accumulator type the engine uses.
        let mut reference = CampaignAccumulator::new();
        for cell in spec.expand() {
            reference.absorb(&cell.synthetic_record());
        }

        // Every GroupStats field, campaign-wide and per axis group
        // (GroupStats is PartialEq over all of its fields, means and M2
        // included, so these are exact bitwise f64 comparisons).
        prop_assert_eq!(&summary.totals, reference.totals());
        prop_assert_eq!(&summary.axes, reference.axes());
        prop_assert_eq!(summary.cells_total, spec.cell_count());
    }
}

#[test]
fn empty_board_axis_is_a_typed_error_not_a_hang() {
    let spec = spec_from(0, 2, 1, 1, 0, 0, 1, 1, 7);
    assert_eq!(spec.cell_count(), 0);

    // The scenario pipeline refuses the empty matrix with the typed error,
    // on a pinned and on the default worker count.
    for config in [
        StreamConfig::default().with_workers(8),
        StreamConfig::default(),
    ] {
        assert!(matches!(
            spec.stream(config, |_| Ok(()), |_| {}),
            Err(AttackError::EmptyCampaign)
        ));
    }
}
