//! Defense evaluation: sweep the sanitization policies, the debugger
//! isolation policy and layout randomization against the attack, and print
//! one table per sweep.
//!
//! Run with: `cargo run --example defense_evaluation`

use fpga_msa::msa::campaign::StreamConfig;
use fpga_msa::msa::defense::{
    evaluate_isolation, evaluate_layout_randomization, evaluate_sanitize_policies,
};
use fpga_msa::msa::report::{bytes, percent, TextTable};
use fpga_msa::petalinux::BoardConfig;
use fpga_msa::vitis::ModelKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let board = BoardConfig::zcu104();
    let model = ModelKind::Resnet50Pt;
    // Every sweep runs on the campaign worker pool; the default config uses
    // the machine's available parallelism.
    let config = StreamConfig::default();

    println!("== sanitization policies vs the attack (victim: {model}) ==\n");
    let mut table = TextTable::new(vec![
        "policy",
        "model identified",
        "pixel recovery",
        "residue frames",
        "scrub cost (cycles)",
        "collateral",
    ]);
    for row in evaluate_sanitize_policies(board, model, &config)? {
        table.add_row(vec![
            row.policy.to_string(),
            row.model_identified.to_string(),
            percent(row.pixel_recovery),
            row.residue_frames.to_string(),
            format!("{:.0}", row.scrub_cost_cycles),
            bytes(row.collateral_bytes),
        ]);
    }
    println!("{table}");

    println!("== debugger isolation policy vs the attack ==\n");
    let mut table = TextTable::new(vec![
        "isolation",
        "attack completed",
        "model identified",
        "pixel recovery",
        "blocked at",
    ]);
    for row in evaluate_isolation(board, model, &config)? {
        table.add_row(vec![
            row.isolation.to_string(),
            row.attack_completed.to_string(),
            row.model_identified.to_string(),
            percent(row.pixel_recovery),
            row.blocked_at.unwrap_or_else(|| "-".to_string()),
        ]);
    }
    println!("{table}");

    println!("== layout randomization vs the attack ==\n");
    let mut table = TextTable::new(vec![
        "allocation order",
        "aslr",
        "scrape mode",
        "model identified",
        "pixel recovery",
    ]);
    for row in evaluate_layout_randomization(board, model, &config)? {
        table.add_row(vec![
            row.allocation_order.to_string(),
            row.aslr.to_string(),
            row.scrape_mode.to_string(),
            row.model_identified.to_string(),
            percent(row.pixel_recovery),
        ]);
    }
    println!("{table}");

    Ok(())
}
