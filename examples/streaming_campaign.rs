//! Streaming campaign: fold a scenario matrix without materializing it.
//!
//! A `CampaignSpec` is a lazy cross-product — `cells()` walks it without
//! allocating the matrix, and the streaming engine executes cells on a
//! worker pool while folding their metrics into per-axis aggregates as
//! they complete.  Memory stays bounded by the pool (a few claim blocks),
//! never by the matrix, which is what lets the same engine run
//! million-cell fleets (`experiments --campaign --stress`).
//!
//! Run with: `cargo run --example streaming_campaign`

use fpga_msa::dram::SanitizePolicy;
use fpga_msa::msa::campaign::{CampaignSpec, InputKind, StreamConfig};
use fpga_msa::msa::report::{percent, TextTable};
use fpga_msa::msa::ScrapeMode;
use fpga_msa::petalinux::{BoardConfig, IsolationPolicy};
use fpga_msa::vitis::ModelKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 48 cells: 2 models × 2 inputs × 3 sanitize policies × 2 isolation
    // policies × 2 scrape modes, all on the tiny board.
    let spec = CampaignSpec::new("tiny", BoardConfig::tiny_for_tests())
        .with_models(vec![ModelKind::SqueezeNet, ModelKind::MobileNetV2])
        .with_inputs(vec![InputKind::SamplePhoto, InputKind::Corrupted])
        .with_sanitize_policies(vec![
            SanitizePolicy::None,
            SanitizePolicy::ZeroOnFree,
            SanitizePolicy::SelectiveScrub,
        ])
        .with_isolation_policies(vec![IsolationPolicy::Permissive, IsolationPolicy::Confined])
        .with_scrape_modes(vec![ScrapeMode::ContiguousRange, ScrapeMode::PerPage])
        .with_seed(2024);

    // The lazy walk: inspect the matrix without running (or storing) it.
    println!(
        "matrix: {} cells, first {}/{}, last {}/{}\n",
        spec.cell_count(),
        spec.cells().next().unwrap().model,
        spec.cells().next().unwrap().sanitize,
        spec.cells().next_back().unwrap().model,
        spec.cells().next_back().unwrap().sanitize,
    );

    // Stream it: NDJSON progress per folded cell group, aggregates at the
    // end.  The visitor (a no-op here) receives every record in cell-index
    // order; the engine does not retain it.
    println!("progress (one NDJSON line per folded cell group):");
    let summary = spec.stream(
        StreamConfig::default().with_workers(2).with_block_size(8),
        |_| Ok(()),
        |progress| println!("{}", progress.to_ndjson()),
    )?;

    println!(
        "\n{} cells on {} workers: {} completed, {} blocked, {} identified",
        summary.cells_total,
        summary.workers,
        summary.totals.completed,
        summary.totals.blocked,
        summary.totals.identified,
    );
    println!(
        "peak resident cells: {} (bounded by the pool, not the matrix)\n",
        summary.peak_resident_cells
    );

    // Per-axis aggregates were folded incrementally — no per-cell records
    // were ever retained.
    let mut table = TextTable::new(vec![
        "sanitize policy",
        "cells",
        "completed",
        "identified",
        "mean pixel recovery",
    ]);
    for (policy, stats) in summary.axes.by_sanitize.iter() {
        table.add_row(vec![
            policy.clone(),
            stats.cells.to_string(),
            stats.completed.to_string(),
            stats.identified.to_string(),
            percent(stats.mean_pixel_recovery),
        ]);
    }
    println!("{table}");

    // The machine-readable artifact the experiments binary writes to
    // BENCH_campaign.json.
    println!("bench JSON:\n{}", summary.bench_json("example"));
    Ok(())
}
