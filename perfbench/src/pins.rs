//! Pinned simulation outputs.
//!
//! Each pin file holds, for one workload and campaign seed, the FNV-1a
//! digest of `CampaignSummary::deterministic_json` plus its two headline
//! figures, and (for real-cell workloads) one digest per cell of the cell's
//! deterministic record.  Every run checks its outputs against the pins, so
//! a speed-up that changes simulated results cannot pass.
//!
//! Regenerate with `--write-pins` (and review the diff): the files are
//! compiled into the binary.

use std::fmt::Write as _;

use msa_core::campaign::{CampaignSummary, CellRecord};

use crate::workloads::Workload;

/// Pin files compiled into the binary: `(workload, campaign seed, text)`.
const PINNED: &[(&str, u64, &str)] = &[
    (
        "zoo-attack",
        2024,
        include_str!("../pins/zoo-attack-2024.txt"),
    ),
    ("zoo-attack", 7, include_str!("../pins/zoo-attack-7.txt")),
    (
        "decay-reconstruct",
        2024,
        include_str!("../pins/decay-reconstruct-2024.txt"),
    ),
    (
        "decay-reconstruct",
        7,
        include_str!("../pins/decay-reconstruct-7.txt"),
    ),
    (
        "lifecycle-churn",
        2024,
        include_str!("../pins/lifecycle-churn-2024.txt"),
    ),
    (
        "lifecycle-churn",
        7,
        include_str!("../pins/lifecycle-churn-7.txt"),
    ),
    (
        "stream-synthetic",
        2024,
        include_str!("../pins/stream-synthetic-2024.txt"),
    ),
    (
        "stream-synthetic",
        7,
        include_str!("../pins/stream-synthetic-7.txt"),
    ),
];

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of a cell's deterministic record: the cell, its result and its
/// scenario metrics (no wall-clock field).
pub fn record_digest(record: &CellRecord) -> u64 {
    fnv1a(format!("{:?}", record.deterministic_view()).as_bytes())
}

/// The deterministic headline of a campaign summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryPin {
    /// Digest of `CampaignSummary::deterministic_json`.
    pub digest: u64,
    /// Correctly identified cells over all cells.
    pub identified_frac: f64,
    /// Mean pixel recovery over completed cells.
    pub pixel_recovery_mean: f64,
}

impl SummaryPin {
    /// Projects a summary onto its pin.
    pub fn of(summary: &CampaignSummary) -> SummaryPin {
        SummaryPin {
            digest: fnv1a(summary.deterministic_json().as_bytes()),
            identified_frac: crate::stats::ratio(
                summary.totals.identified as f64,
                summary.cells_total as f64,
            ),
            pixel_recovery_mean: summary.totals.mean_pixel_recovery,
        }
    }
}

/// The pins of one workload under one campaign seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Pins {
    /// The summary pin.
    pub summary: SummaryPin,
    /// Per-cell record digests by cell index (empty for synthetic cells).
    pub cells: Vec<u64>,
}

impl Pins {
    /// The compiled-in pins for `workload` under `seed`.
    pub fn lookup(workload: Workload, seed: u64) -> Result<Pins, String> {
        let (_, _, text) = PINNED
            .iter()
            .find(|(name, pinned_seed, _)| *name == workload.name() && *pinned_seed == seed)
            .ok_or_else(|| {
                format!(
                    "no pins for {} under campaign seed {seed}; pinned seeds: {:?}",
                    workload.name(),
                    pinned_seeds(workload)
                )
            })?;
        Pins::parse(text).map_err(|e| format!("pins for {} seed {seed}: {e}", workload.name()))
    }

    /// Parses a pin file.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let mut summary = None;
        let mut cells = Vec::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["summary", digest, identified, recovery] => {
                    summary = Some(SummaryPin {
                        digest: parse_hex(digest)?,
                        identified_frac: parse_f64(identified)?,
                        pixel_recovery_mean: parse_f64(recovery)?,
                    });
                }
                ["cell", index, digest, ..] => {
                    let index: usize = index.parse().map_err(|_| format!("bad index {index}"))?;
                    if index != cells.len() {
                        return Err(format!("cell {index} out of order"));
                    }
                    cells.push(parse_hex(digest)?);
                }
                _ => return Err(format!("unrecognised line: {line}")),
            }
        }
        Ok(Pins {
            summary: summary.ok_or("missing summary line")?,
            cells,
        })
    }

    /// Renders a pin file; `records` are one pass in cell-index order.
    pub fn render(
        workload: Workload,
        seed: u64,
        summary: SummaryPin,
        records: &[CellRecord],
    ) -> String {
        let mut text = format!(
            "# {} under campaign seed {seed}; regenerate with --write-pins\n\
             # summary <deterministic_json digest> <identified_frac> <pixel_recovery_mean>\n\
             summary {:016x} {:?} {:?}\n",
            workload.name(),
            summary.digest,
            summary.identified_frac,
            summary.pixel_recovery_mean,
        );
        if !records.is_empty() {
            text.push_str("# cell <index> <deterministic record digest> <label>\n");
        }
        for record in records {
            let _ = writeln!(
                text,
                "cell {} {:016x} {}",
                record.cell.index,
                record_digest(record),
                record.cell.label()
            );
        }
        text
    }
}

/// Campaign seeds with pins for `workload`.
pub fn pinned_seeds(workload: Workload) -> Vec<u64> {
    PINNED
        .iter()
        .filter(|(name, _, _)| *name == workload.name())
        .map(|(_, seed, _)| *seed)
        .collect()
}

/// Where `--write-pins` writes the file for `workload` under `seed`.
pub fn pin_path(workload: Workload, seed: u64) -> String {
    format!(
        "{}/pins/{}-{seed}.txt",
        env!("CARGO_MANIFEST_DIR"),
        workload.name()
    )
}

fn parse_hex(text: &str) -> Result<u64, String> {
    u64::from_str_radix(text, 16).map_err(|_| format!("bad digest {text}"))
}

fn parse_f64(text: &str) -> Result<f64, String> {
    text.parse().map_err(|_| format!("bad number {text}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn every_compiled_pin_file_parses_and_each_workload_has_two_seeds() {
        for workload in Workload::ALL {
            let seeds = pinned_seeds(workload);
            assert_eq!(seeds.len(), 2, "{}", workload.name());
            for seed in seeds {
                let pins = Pins::lookup(workload, seed).unwrap();
                let cells = workload.spec(seed).cell_count();
                let expected = if workload.real_cells() { cells } else { 0 };
                assert_eq!(pins.cells.len(), expected, "{}", workload.name());
            }
        }
        assert!(Pins::lookup(Workload::ZooAttack, 1).is_err());
    }
}
