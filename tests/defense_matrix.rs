//! Integration tests: the defense sweeps keep their expected shape.

use fpga_msa::dram::SanitizePolicy;
use fpga_msa::mmu::{AllocationOrder, AslrMode};
use fpga_msa::msa::attack::ScrapeMode;
use fpga_msa::msa::campaign::StreamConfig;
use fpga_msa::msa::defense::{
    evaluate_isolation, evaluate_layout_randomization, evaluate_multi_tenant,
    evaluate_sanitize_policies,
};
use fpga_msa::msa::scenario::AttackScenario;
use fpga_msa::petalinux::{BoardConfig, IsolationPolicy};
use fpga_msa::vitis::ModelKind;

fn board() -> BoardConfig {
    BoardConfig::tiny_for_tests()
}

fn config() -> StreamConfig {
    StreamConfig::new().with_workers(2)
}

#[test]
fn sanitization_sweep_orders_policies_as_expected() {
    let rows = evaluate_sanitize_policies(board(), ModelKind::Resnet50Pt, &config()).unwrap();
    let get = |p: SanitizePolicy| rows.iter().find(|r| r.policy == p).unwrap();

    // Vulnerable default: full recovery at zero cost.
    assert!(get(SanitizePolicy::None).pixel_recovery > 0.99);
    assert_eq!(get(SanitizePolicy::None).scrub_cost_cycles, 0.0);

    // All eager policies defeat the attack.
    for policy in [
        SanitizePolicy::ZeroOnFree,
        SanitizePolicy::RowClone,
        SanitizePolicy::RowReset,
        SanitizePolicy::SelectiveScrub,
    ] {
        assert_eq!(get(policy).pixel_recovery, 0.0, "{policy}");
        assert!(!get(policy).model_identified, "{policy}");
    }

    // Cost ordering matches the literature: in-DRAM bulk initialization is
    // cheaper than CPU stores; RowReset (per bank) is cheapest per byte.
    let zero = get(SanitizePolicy::ZeroOnFree).scrub_cost_cycles;
    let rowclone = get(SanitizePolicy::RowClone).scrub_cost_cycles;
    assert!(rowclone < zero);

    // A slow background scrubber leaves the attack window open.
    let background = rows
        .iter()
        .find(|r| matches!(r.policy, SanitizePolicy::Background { .. }))
        .unwrap();
    assert!(background.pixel_recovery > 0.99);
}

#[test]
fn isolation_sweep_shows_the_confined_policy_closing_the_channel() {
    let rows = evaluate_isolation(board(), ModelKind::Resnet50Pt, &config()).unwrap();
    let permissive = rows
        .iter()
        .find(|r| r.isolation == IsolationPolicy::Permissive)
        .unwrap();
    let confined = rows
        .iter()
        .find(|r| r.isolation == IsolationPolicy::Confined)
        .unwrap();
    assert!(permissive.attack_completed && permissive.model_identified);
    assert!(!confined.attack_completed);
    assert!(confined.blocked_at.is_some());
}

#[test]
fn layout_randomization_defeats_contiguous_scraping_only() {
    let rows = evaluate_layout_randomization(board(), ModelKind::Resnet50Pt, &config()).unwrap();
    assert_eq!(rows.len(), 8);

    let randomized_contiguous = rows
        .iter()
        .find(|r| {
            matches!(r.allocation_order, AllocationOrder::Randomized { .. })
                && r.aslr == AslrMode::Disabled
                && r.scrape_mode == ScrapeMode::ContiguousRange
        })
        .unwrap();
    let randomized_per_page = rows
        .iter()
        .find(|r| {
            matches!(r.allocation_order, AllocationOrder::Randomized { .. })
                && r.aslr == AslrMode::Disabled
                && r.scrape_mode == ScrapeMode::PerPage
        })
        .unwrap();
    assert!(randomized_contiguous.pixel_recovery < 0.5);
    assert!(randomized_per_page.pixel_recovery > 0.99);

    // Virtual ASLR alone never helps (offsets are heap-relative).
    for row in rows.iter().filter(|r| {
        r.aslr != AslrMode::Disabled && r.allocation_order == AllocationOrder::Sequential
    }) {
        assert!(row.pixel_recovery > 0.99);
    }
}

#[test]
fn multi_tenant_sweep_separates_precise_from_bulk_sanitizers() {
    let rows = evaluate_multi_tenant(
        board(),
        ModelKind::SqueezeNet,
        ModelKind::MobileNetV2,
        &config(),
    )
    .unwrap();
    let get = |p: SanitizePolicy| rows.iter().find(|r| r.policy == p).unwrap();

    assert!(get(SanitizePolicy::None).victim_model_identified);
    assert!(get(SanitizePolicy::None).active_tenant_data_intact);

    for policy in [SanitizePolicy::ZeroOnFree, SanitizePolicy::SelectiveScrub] {
        let row = get(policy);
        assert!(!row.victim_model_identified);
        assert!(row.active_tenant_data_intact, "{policy}");
    }
    for policy in [SanitizePolicy::RowClone, SanitizePolicy::RowReset] {
        let row = get(policy);
        assert!(!row.victim_model_identified);
        assert!(!row.active_tenant_data_intact, "{policy}");
        assert!(row.active_tenant_bytes_clobbered > 0, "{policy}");
    }
}

#[test]
fn combining_scrubbing_and_confinement_is_strictly_stronger_than_either() {
    let hardened = board()
        .with_sanitize_policy(SanitizePolicy::SelectiveScrub)
        .with_isolation(IsolationPolicy::Confined)
        .with_allocation_order(AllocationOrder::Randomized { seed: 11 });
    let scenario = AttackScenario::new(hardened, ModelKind::Resnet50Pt).with_corrupted_input();
    let (result, outcome) = scenario.execute_allow_blocked().unwrap();
    // The channel is closed before the attack even reaches the residue.
    assert!(outcome.is_none());
    assert!(matches!(
        result,
        fpga_msa::msa::scenario::ScenarioResult::Blocked { .. }
    ));
}
