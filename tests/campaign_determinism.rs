//! Campaign determinism: the worker pool must not change the science.
//!
//! A `CampaignReport` is a measurement artifact — if its content depended on
//! how many threads happened to run it, no table built on top of it could be
//! trusted.  This suite pins the contract: for a fixed spec and seed, the
//! per-cell results (cell axes, completed/blocked status and all scenario
//! metrics) are identical for 1 worker vs. N workers and across repeated
//! runs.  Only wall-clock fields may differ.

// Lint audit: indexes and slice bounds here are established by the
// surrounding length checks / loop invariants before use.
#![allow(clippy::indexing_slicing)]

use fpga_msa::dram::SanitizePolicy;
use fpga_msa::msa::campaign::{
    Adversary, CampaignReport, CampaignSpec, CellRecord, InputKind, StreamConfig,
};
use fpga_msa::msa::scenario::VictimSchedule;
use fpga_msa::msa::ScrapeMode;
use fpga_msa::petalinux::{BoardConfig, IsolationPolicy};
use fpga_msa::vitis::ModelKind;

/// A 288-cell matrix exercising every axis class: 3 models × 2 inputs ×
/// 3 sanitize × 2 isolation × 2 scrape × 4 schedules — including both
/// residue-lifetime schedules (revival and live traffic).
fn matrix_spec() -> CampaignSpec {
    CampaignSpec::new("tiny", BoardConfig::tiny_for_tests())
        .with_models(vec![
            ModelKind::SqueezeNet,
            ModelKind::MobileNetV2,
            ModelKind::EfficientNetLite,
        ])
        .with_inputs(vec![InputKind::SamplePhoto, InputKind::Corrupted])
        .with_sanitize_policies(vec![
            SanitizePolicy::None,
            SanitizePolicy::SelectiveScrub,
            SanitizePolicy::Background { delay_ticks: 1000 },
        ])
        .with_isolation_policies(vec![IsolationPolicy::Permissive, IsolationPolicy::Confined])
        .with_scrape_modes(vec![ScrapeMode::ContiguousRange, ScrapeMode::PerPage])
        .with_schedules(vec![
            VictimSchedule::Single,
            VictimSchedule::SequentialTraffic { predecessors: 1 },
            VictimSchedule::Revival {
                successors: 1,
                reuse_pid: true,
            },
            VictimSchedule::LiveTraffic {
                tenants: 1,
                churn_rate: 1,
            },
        ])
        .with_seed(0xFEED)
}

/// The reproducible projection of a report: everything except wall-clock.
fn deterministic_view(
    report: &CampaignReport,
) -> Vec<(
    &fpga_msa::msa::CampaignCell,
    &fpga_msa::msa::scenario::ScenarioResult,
    Option<&fpga_msa::msa::ScenarioMetrics>,
)> {
    report
        .cells()
        .iter()
        .map(CellRecord::deterministic_view)
        .collect()
}

#[test]
fn report_is_worker_count_independent_and_replayable() {
    let spec = matrix_spec();
    assert!(spec.cell_count() >= 200, "matrix must cover ≥ 200 cells");

    let serial = spec.run_with_workers(1).unwrap();
    let parallel = spec.run_with_workers(4).unwrap();
    let replay = spec.run_with_workers(4).unwrap();

    assert_eq!(serial.len(), spec.cell_count());
    assert_eq!(serial.workers(), 1);
    assert_eq!(parallel.workers(), 4);

    // 1 worker vs. N workers: identical content.
    assert_eq!(deterministic_view(&serial), deterministic_view(&parallel));
    // Same seed, repeated run: identical content.
    assert_eq!(deterministic_view(&parallel), deterministic_view(&replay));

    // The matrix is not degenerate: it contains completed, blocked,
    // identified and defeated cells, so the equality above is meaningful.
    assert!(serial.completed_count() > 0);
    assert!(serial.blocked_count() > 0);
    assert!(serial.identified_count() > 0);
    assert!(serial.identified_count() < serial.completed_count());

    // Records come back in expansion order regardless of scheduling.
    let expanded = spec.expand();
    for (ran, declared) in parallel.cells().iter().zip(&expanded) {
        assert_eq!(&ran.cell, declared);
    }

    // Aggregations are pure projections of the deterministic records.
    let groups = parallel.group_by(|r| r.cell.isolation.to_string());
    let confined = &groups["confined"];
    assert_eq!(confined.blocked, confined.cells);
    assert_eq!(parallel.blocked_count(), confined.blocked);
    assert_eq!(serial.mean_pixel_recovery(), parallel.mean_pixel_recovery());

    // The residue-lifetime schedules produced live (non-degenerate) data
    // inside the matrix, so the equalities above pin them too.
    let by_schedule = parallel.group_by(|r| r.cell.schedule.to_string());
    assert_eq!(by_schedule.len(), 4);
    let revival = &by_schedule["revival(1,reuse-pid)"];
    assert!(revival.revival_inherited_frames > 0);
    assert!(revival.mean_revival_inheritance > 0.0);
    let live = &by_schedule["live-traffic(1,churn=1)"];
    assert!(live.cells > 0);
    assert_eq!(live.revival_inherited_frames, 0);
}

/// The remanence decay axis is a science knob, but a deterministic one: a
/// swept matrix (decay models × sanitize × schedules, with the chunked
/// live-traffic scrape ticking the decay clock mid-read) is byte-identical
/// between 1 and 4 pool workers and across repeated runs, the perfect cells
/// flip zero bits, and the decaying cells flip a reproducible number.
#[test]
fn remanence_axis_is_worker_count_independent() {
    use fpga_msa::dram::RemanenceModel;
    let spec = CampaignSpec::new("tiny", BoardConfig::tiny_for_tests())
        .with_models(vec![ModelKind::SqueezeNet])
        .with_inputs(vec![InputKind::Corrupted])
        .with_sanitize_policies(vec![SanitizePolicy::None, SanitizePolicy::ZeroOnFree])
        .with_remanence_models(vec![
            RemanenceModel::Perfect,
            RemanenceModel::Exponential { half_life_ticks: 2 },
            RemanenceModel::BitFlip { rate_ppm: 200_000 },
        ])
        .with_schedules(vec![
            VictimSchedule::Single,
            VictimSchedule::Revival {
                successors: 1,
                reuse_pid: true,
            },
            VictimSchedule::LiveTraffic {
                tenants: 1,
                churn_rate: 1,
            },
        ])
        .with_seed(0xDECA);
    assert_eq!(spec.cell_count(), 18);

    let serial = spec.run_with_workers(1).unwrap();
    let parallel = spec.run_with_workers(4).unwrap();
    let replay = spec.run_with_workers(4).unwrap();
    assert_eq!(deterministic_view(&serial), deterministic_view(&parallel));
    assert_eq!(deterministic_view(&parallel), deterministic_view(&replay));

    // The matrix is not degenerate: perfect cells flip nothing, decaying
    // unsanitized cells flip real residue bits.
    let by_remanence = parallel.group_by(|r| r.cell.remanence.to_string());
    assert_eq!(by_remanence.len(), 3);
    assert_eq!(by_remanence["perfect"].residue_bits_flipped, 0);
    assert_eq!(by_remanence["perfect"].mean_decayed_recovery, 1.0);
    assert!(by_remanence["exponential(hl=2)"].residue_bits_flipped > 0);
    assert!(by_remanence["exponential(hl=2)"].mean_decayed_recovery < 1.0);
    assert!(by_remanence["bitflip(200000ppm)"].residue_bits_flipped > 0);

    // Zero-on-free leaves no residue, so there is nothing to decay: the
    // fidelity metrics collapse to "nothing lost" under every model.
    for record in parallel.cells() {
        if record.cell.sanitize == SanitizePolicy::ZeroOnFree {
            let lifetime = record.metrics.as_ref().unwrap().residue_lifetime;
            assert_eq!(lifetime.residue_bytes_raw, 0);
            assert_eq!(lifetime.residue_bits_flipped, 0);
            assert_eq!(lifetime.decayed_recovery_rate(), 1.0);
        }
    }
}

/// Live-traffic churn interleaving is pinned to the cell seed: replaying the
/// same spec reproduces the same churn sequence, loss counts and recovery —
/// across worker counts and repeated runs — while a different campaign seed
/// plays a different tenant rotation.  Nothing here depends on wall clock.
#[test]
fn live_traffic_churn_is_pinned_to_the_cell_seed() {
    let spec_at = |seed: u64| {
        CampaignSpec::new("tiny", BoardConfig::tiny_for_tests())
            .with_inputs(vec![InputKind::Corrupted])
            .with_schedules(vec![VictimSchedule::LiveTraffic {
                tenants: 2,
                churn_rate: 2,
            }])
            .with_seed(seed)
    };

    let spec = spec_at(41);
    let serial = spec.run_with_workers(1).unwrap();
    let parallel = spec.run_with_workers(4).unwrap();
    let replay = spec.run_with_workers(4).unwrap();
    assert_eq!(deterministic_view(&serial), deterministic_view(&parallel));
    assert_eq!(deterministic_view(&parallel), deterministic_view(&replay));

    // The pinned run is not degenerate: churn actually happened and cost the
    // attacker residue.
    let lifetime = serial.cells()[0].metrics.as_ref().unwrap().residue_lifetime;
    assert!(lifetime.churn_events > 0);
    assert!(lifetime.frames_lost_before_scrape > 0);
    assert!(lifetime.survival_rate() < 1.0);

    // A different campaign seed derives a different churn outcome — the
    // interleaving is seeded data, not an accident of scheduling.
    let reseeded = spec_at(7).run_with_workers(4).unwrap();
    let other = reseeded.cells()[0]
        .metrics
        .as_ref()
        .unwrap()
        .residue_lifetime;
    assert_ne!(
        lifetime.frames_lost_before_scrape,
        other.frames_lost_before_scrape
    );
}

/// Race-check builds only: stream the matrix through a multi-worker pool and
/// assert the shadow-state checker audited the block claims with zero
/// cross-worker overlaps.  This is
/// the "wired into the determinism suite" guarantee — the determinism
/// equalities above hold *and* the partitioning they rely on was verified,
/// not assumed.
#[cfg(feature = "race-check")]
#[test]
fn race_checker_audits_the_streaming_pool_with_zero_overlaps() {
    use fpga_msa::dram::racecheck;

    let before = racecheck::stats();
    let spec = matrix_spec().with_scrape_modes(vec![ScrapeMode::ContiguousRange]);
    let summary = spec
        .stream_cells(
            StreamConfig::default().with_workers(4).with_block_size(8),
            |_| Ok(()),
        )
        .unwrap();
    assert_eq!(summary.cells_total, spec.cell_count());
    let after = racecheck::stats();
    assert!(
        after.ops_checked > before.ops_checked,
        "the streamed pool must pass through the race checker ({before:?} -> {after:?})"
    );
    assert!(
        after.intervals_recorded
            >= before.intervals_recorded + spec.cell_count().div_ceil(8) as u64,
        "every claimed block must be recorded ({before:?} -> {after:?})"
    );
    assert_eq!(after.overlaps_found, 0, "no cross-worker overlap may exist");
}

/// The streaming engine is a pure reorganization of the batch pool: for the
/// same real matrix, the streamed summary is byte-identical (via
/// `deterministic_json`) to the summary folded from the batch report, and
/// the streaming visitor sees every record in expansion order with the same
/// deterministic content the batch report stores.
#[test]
fn streaming_summary_matches_batch_report_on_real_cells() {
    let spec = matrix_spec();
    let batch = spec.run_with_workers(2).unwrap();

    let mut visited = Vec::new();
    let summary = spec
        .stream_cells(StreamConfig::default().with_workers(2), |record| {
            visited.push(record);
            Ok(())
        })
        .unwrap();

    assert_eq!(
        summary.deterministic_json(),
        batch.summary().deterministic_json()
    );
    assert_eq!(visited.len(), batch.len());
    for (streamed, batched) in visited.iter().zip(batch.cells()) {
        assert_eq!(streamed.deterministic_view(), batched.deterministic_view());
    }
}

/// Engine determinism proper: for a fixed spec the deterministic summary is
/// byte-identical across worker counts {1, 2, 8} and across adversarial
/// completion orders (reverse and seeded-shuffle schedulers that hand
/// finished blocks to the collector in hostile order).  The synthetic
/// executor keeps the 288-cell matrix effectively free, so this pins the
/// scheduling/folding machinery itself, independent of scenario cost.
#[test]
fn streaming_summary_is_identical_across_workers_and_completion_orders() {
    let spec = matrix_spec();
    let run = |config: StreamConfig| {
        spec.stream_with_executor(
            config,
            |cell| Ok(cell.synthetic_record()),
            |_| Ok(()),
            |_| {},
        )
        .unwrap()
        .deterministic_json()
    };

    // Small blocks force many groups through the reorder buffer.
    let reference = run(StreamConfig::default().with_workers(1).with_block_size(4));
    for workers in [1, 2, 8] {
        for adversary in [
            None,
            Some(Adversary::ReverseCompletion),
            Some(Adversary::ShuffledCompletion { seed: 0xD15C }),
        ] {
            let mut config = StreamConfig::default()
                .with_workers(workers)
                .with_block_size(4);
            if let Some(adversary) = adversary {
                config = config.with_adversary(adversary);
            }
            assert_eq!(
                run(config),
                reference,
                "workers={workers}, adversary={adversary:?}"
            );
        }
    }
}
