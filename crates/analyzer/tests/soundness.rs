//! The soundness harness: static verdicts vs. the dynamic campaign engine.
//!
//! Streams real campaigns (tiny board, squeezenet victim) over the exact
//! axis product of the shipped audit matrix and checks every binding verdict
//! against the measured residue:
//!
//! - a channel judged `Scrubbed` must measure **exactly zero** in the
//!   dynamic run (no false-safe verdicts — the property the analyzer exists
//!   for),
//! - a channel judged `Leaks` must measure **strictly positive**,
//! - a fully scrubbed cell must additionally recover nothing at all: zero
//!   pixel recovery, no identification, zero raw residue bytes.
//!
//! `DecayBounded` channels are deliberately unchecked — that verdict claims
//! nothing measurable.
//!
//! The per-channel dynamic measures:
//!
//! | channel       | measure                                                |
//! |---------------|--------------------------------------------------------|
//! | `dram-frames` | `victim_frames - cow_inherited_frames - frames_lost_before_scrape` |
//! | `swap-slots`  | `swap_resident_bytes`                                  |
//! | `cow-frames`  | `cow_inherited_frames`                                 |
//! | `pid-reuse`   | `revival_inherited_frames`                             |

use msa_analyzer::{analyze, Channel, ScenarioShape, Verdict};
use msa_core::campaign::{CampaignSpec, CellRecord, InputKind, StreamConfig};
use msa_core::VictimSchedule;
use petalinux_sim::BoardConfig;
use vitis_ai_sim::ModelKind;
use zynq_dram::{RemanenceModel, SanitizePolicy};

/// The audited sanitize policies (the swap sweep's eight).
fn policies() -> Vec<SanitizePolicy> {
    msa_analyzer::audited_policies()
}

/// A single-victim spec over the audited policy × remanence product at one
/// swap pressure, scraped contiguously.
fn block_a_spec(swap: u8) -> CampaignSpec {
    CampaignSpec::new("soundness", BoardConfig::tiny_for_tests().with_swap(swap))
        .with_models(vec![ModelKind::SqueezeNet])
        .with_inputs(vec![InputKind::SamplePhoto])
        .with_sanitize_policies(policies())
        .with_remanence_models(vec![
            RemanenceModel::Perfect,
            RemanenceModel::Exponential { half_life_ticks: 1 },
        ])
        .with_seed(0x50F7)
}

/// A one-schedule spec over the audited policies (Blocks B and C).
fn schedule_spec(schedule: VictimSchedule) -> CampaignSpec {
    CampaignSpec::new("soundness", BoardConfig::tiny_for_tests())
        .with_models(vec![ModelKind::SqueezeNet])
        .with_inputs(vec![InputKind::SamplePhoto])
        .with_sanitize_policies(policies())
        .with_schedules(vec![schedule])
        .with_seed(0x50F7)
}

/// Streams `spec` and returns every record (strict cell-index order).
fn stream(spec: &CampaignSpec) -> Vec<CellRecord> {
    let mut records = Vec::new();
    spec.stream(
        StreamConfig::default(),
        |record| {
            records.push(record);
            Ok(())
        },
        |_| {},
    )
    .expect("soundness campaign streams");
    records
}

/// The dynamic measure of one channel in one completed cell.
fn measure(record: &CellRecord, channel: Channel) -> u64 {
    let metrics = record
        .metrics
        .as_ref()
        .expect("permissive soundness cells complete");
    let lifetime = metrics.residue_lifetime;
    match channel {
        Channel::DramFrames => lifetime
            .victim_frames
            .saturating_sub(lifetime.cow_inherited_frames)
            .saturating_sub(lifetime.frames_lost_before_scrape)
            as u64,
        Channel::SwapSlots => lifetime.swap_resident_bytes,
        Channel::CowFrames => lifetime.cow_inherited_frames as u64,
        Channel::PidReuse => lifetime.revival_inherited_frames as u64,
    }
}

/// Checks every binding verdict of `record`'s cell against its measured
/// residue; returns the verdict classes seen (for the non-degeneracy tally).
fn check_record(record: &CellRecord) -> Vec<(Channel, Verdict)> {
    let shape = ScenarioShape::of_cell(&record.cell);
    let analysis = analyze(&shape);
    let ctx = format!(
        "cell {} ({}, {}, swap {}%, {}, {})",
        record.cell.index,
        shape.policy,
        shape.schedule,
        shape.swap_pressure,
        shape.remanence,
        shape.scrape
    );

    let mut seen = Vec::new();
    for (channel, flow) in analysis.channels() {
        let measured = measure(record, channel);
        match flow.verdict {
            Verdict::Scrubbed => assert_eq!(
                measured, 0,
                "{ctx}: {channel} judged scrubbed but measures {measured} \
                 (provenance: {:?})",
                flow.provenance
            ),
            Verdict::Leaks => assert!(
                measured > 0,
                "{ctx}: {channel} judged leaking but measures zero \
                 (provenance: {:?})",
                flow.provenance
            ),
            Verdict::DecayBounded => {}
        }
        seen.push((channel, flow.verdict));
    }

    if analysis.fully_scrubbed() {
        let metrics = record.metrics.as_ref().expect("completed");
        assert_eq!(
            metrics.pixel_recovery, 0.0,
            "{ctx}: fully scrubbed but pixels recovered"
        );
        assert!(
            !metrics.model_identified,
            "{ctx}: fully scrubbed but the model was identified"
        );
        assert_eq!(
            metrics.residue_lifetime.residue_bytes_raw, 0,
            "{ctx}: fully scrubbed but raw residue bytes remain"
        );
    }
    seen
}

#[test]
fn static_verdicts_are_sound_over_the_audited_single_victim_product() {
    let mut tally: Vec<(Channel, Verdict)> = Vec::new();
    for swap in [0u8, msa_analyzer::audit::SWAP_PRESSURE] {
        let records = stream(&block_a_spec(swap));
        assert_eq!(records.len(), 16);
        for record in &records {
            tally.extend(check_record(record));
        }
    }
    // Non-degeneracy: the product exercises binding verdicts on both sides
    // for the frame and swap channels — the soundness claims above were
    // tested against real zeros *and* real positives.
    for channel in [Channel::DramFrames, Channel::SwapSlots] {
        for verdict in [Verdict::Scrubbed, Verdict::Leaks] {
            assert!(
                tally.iter().any(|&(c, v)| c == channel && v == verdict),
                "audit product never produced {verdict} on {channel}"
            );
        }
    }
    assert!(tally
        .iter()
        .any(|&(c, v)| c == Channel::DramFrames && v == Verdict::DecayBounded));
}

#[test]
fn static_verdicts_are_sound_over_the_revival_block() {
    let records = stream(&schedule_spec(VictimSchedule::Revival {
        successors: 1,
        reuse_pid: true,
    }));
    assert_eq!(records.len(), 8);
    let mut tally = Vec::new();
    for record in &records {
        tally.extend(check_record(record));
    }
    // Both binding verdicts occur on the inheritance channel: unsanitized
    // frames are inherited raw, fully scrubbed frames inherit nothing.
    for verdict in [Verdict::Scrubbed, Verdict::Leaks] {
        assert!(
            tally
                .iter()
                .any(|&(c, v)| c == Channel::PidReuse && v == verdict),
            "revival block never produced {verdict} on pid-reuse"
        );
    }
}

#[test]
fn static_verdicts_are_sound_over_the_fork_heavy_block() {
    let records = stream(&schedule_spec(VictimSchedule::ForkHeavy {
        children: msa_analyzer::audit::COW_CHILDREN,
    }));
    assert_eq!(records.len(), 8);
    let mut tally = Vec::new();
    for record in &records {
        tally.extend(check_record(record));
    }
    // CoW retention leaks under every audited policy — including the ones
    // that fully scrub freed frames — and the DRAM channel is clean because
    // nothing was freed.
    assert!(tally
        .iter()
        .filter(|&&(c, _)| c == Channel::CowFrames)
        .all(|&(_, v)| v == Verdict::Leaks));
    assert!(tally
        .iter()
        .filter(|&&(c, _)| c == Channel::DramFrames)
        .all(|&(_, v)| v == Verdict::Scrubbed));
}
