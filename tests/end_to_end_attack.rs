//! Integration tests: the full attack across models, inputs and boards.

// Lint audit: narrowing casts here operate on values already clamped
// to their target range by the surrounding arithmetic.
#![allow(clippy::cast_possible_truncation)]

use fpga_msa::debugger::DebugSession;
use fpga_msa::msa::attack::{AttackConfig, AttackPipeline, ScrapeMode};
use fpga_msa::msa::profile::Profiler;
use fpga_msa::msa::scenario::AttackScenario;
use fpga_msa::petalinux::{BoardConfig, Kernel, UserId};
use fpga_msa::vitis::{DpuRunner, Image, ModelKind};

#[test]
fn paper_scenario_recovers_model_and_corrupted_image_on_zcu104() {
    let outcome = AttackScenario::new(BoardConfig::zcu104(), ModelKind::Resnet50Pt)
        .with_corrupted_input()
        .execute()
        .expect("attack completes on the stock board");

    assert_eq!(outcome.identified_model(), Some(ModelKind::Resnet50Pt));
    assert!(outcome.attack().identification_confidence() >= 0.5);
    assert!(outcome.pixel_recovery_rate() > 0.99);
    assert!(!outcome.attack().marker_runs.is_empty());
    assert!(outcome.residue_frames_after() > 0);
    assert_eq!(outcome.denied_operations(), 0);
}

#[test]
fn attack_generalizes_to_zcu102() {
    let outcome = AttackScenario::new(BoardConfig::zcu102(), ModelKind::Resnet50Pt)
        .with_corrupted_input()
        .execute()
        .expect("attack completes on the ZCU102 preset");
    assert!(outcome.model_identification_correct());
    assert!(outcome.pixel_recovery_rate() > 0.99);
}

#[test]
fn natural_photo_input_is_recovered_via_profiled_offset() {
    // Without a marker image, reconstruction must rely on offline profiling.
    let outcome = AttackScenario::new(BoardConfig::tiny_for_tests(), ModelKind::MobileNetV2)
        .execute()
        .expect("attack completes");
    assert!(outcome.model_identification_correct());
    assert!(outcome.attack().marker_runs.is_empty());
    assert!(outcome.pixel_recovery_rate() > 0.99);
}

#[test]
fn every_zoo_model_is_identified_correctly() {
    let board = BoardConfig::tiny_for_tests();
    let profiles = Profiler::new(board).profile_all();
    for model in ModelKind::all() {
        let outcome = AttackScenario::new(board, model)
            .with_profiles(profiles.clone())
            .execute()
            .unwrap_or_else(|e| panic!("attack on {model} failed: {e}"));
        assert_eq!(
            outcome.identified_model(),
            Some(model),
            "victim {model} misidentified"
        );
        assert!(
            outcome.pixel_recovery_rate() > 0.99,
            "victim {model} image not recovered"
        );
    }
}

#[test]
fn per_page_and_contiguous_scraping_agree_on_the_default_board() {
    let board = BoardConfig::tiny_for_tests();
    for mode in [ScrapeMode::ContiguousRange, ScrapeMode::PerPage] {
        let outcome = AttackScenario::new(board, ModelKind::SqueezeNet)
            .with_corrupted_input()
            .with_attack_config(AttackConfig {
                scrape_mode: mode,
                ..AttackConfig::default()
            })
            .execute()
            .expect("attack completes");
        assert!(outcome.model_identification_correct(), "{mode} failed");
        assert!(outcome.pixel_recovery_rate() > 0.99, "{mode} failed");
    }
}

#[test]
fn attack_steps_compose_manually_across_crates() {
    // Drive the pipeline step by step instead of through AttackScenario, so
    // the substrate crates are exercised exactly the way a downstream user
    // would chain them.
    let board = BoardConfig::tiny_for_tests();
    let profiles = Profiler::new(board).profile_all();
    let pipeline = AttackPipeline::new(AttackConfig::default()).with_profiles(profiles);

    let mut kernel = Kernel::boot(board);
    let input = Image::sample_photo(224, 224);
    let victim = DpuRunner::new(ModelKind::DenseNet161)
        .with_input(input.clone())
        .launch(&mut kernel, UserId::new(0))
        .expect("victim launches");

    let mut debugger = DebugSession::connect(UserId::new(1));
    let pid = pipeline
        .poll_for_victim(&mut debugger, &kernel)
        .expect("victim found");
    assert_eq!(pid, victim.pid());

    let observation = pipeline
        .observe_victim(&mut debugger, &kernel, pid)
        .expect("translation captured");
    assert!(observation.translation().completeness() > 0.99);

    // Scraping before termination is refused.
    assert!(pipeline
        .scrape_after_termination(&mut debugger, &kernel, &observation)
        .is_err());

    victim.terminate(&mut kernel).expect("victim terminates");
    let outcome = pipeline
        .execute(&mut debugger, &kernel, &observation)
        .expect("attack completes");

    assert_eq!(outcome.identified_model(), Some(ModelKind::DenseNet161));
    assert_eq!(outcome.image_recovery_rate(&input), 1.0);
    assert!(outcome.dump_coverage > 0.99);

    // The debugger audit trail shows the attack's signature: a maps read, a
    // pagemap read and a large physical read.
    assert!(debugger.audit().physical_bytes_read() as usize >= outcome.bytes_scraped);
    assert!(debugger.audit().inspections_of(pid) >= 2);
}

#[test]
fn weights_are_present_in_the_scraped_dump() {
    // Beyond the image, the residue contains the model's weight blob at the
    // profiled offset — checked here against the public weights the attacker
    // already has.
    let board = BoardConfig::tiny_for_tests();
    let profiler = Profiler::new(board);
    let profile = profiler.profile_model(ModelKind::SqueezeNet).unwrap();
    let weights_offset = profile.weights_offset.expect("weights located");

    let pipeline = AttackPipeline::new(AttackConfig::default());
    let mut kernel = Kernel::boot(board);
    let victim = DpuRunner::new(ModelKind::SqueezeNet)
        .launch(&mut kernel, UserId::new(0))
        .unwrap();
    let mut debugger = DebugSession::connect(UserId::new(1));
    let observation = pipeline.poll_and_observe(&mut debugger, &kernel).unwrap();
    victim.terminate(&mut kernel).unwrap();
    let dump = pipeline
        .scrape_after_termination(&mut debugger, &kernel, &observation)
        .unwrap();

    let expected = fpga_msa::vitis::weights::quantized_weights(ModelKind::SqueezeNet);
    let recovered = dump
        .slice(weights_offset, expected.len())
        .expect("dump covers the weight blob");
    assert_eq!(recovered, expected, "weight blob mismatch");
}
