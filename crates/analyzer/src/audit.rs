//! The shipped audit matrix: the axis product the analyzer ships verdicts
//! for, the `ANALYSIS.json` report (schema `msa-analyzer-v1`) and its
//! human-readable table.
//!
//! The matrix mirrors the repository's dynamic sweeps so every static
//! verdict has a dynamic counterpart to be checked against:
//!
//! - **Block A** (32 cells): the single-victim product — every audited
//!   sanitize policy × swap pressure {0, 100} × remanence
//!   {perfect, exponential(hl=1)}, scraped contiguously — covering the swap
//!   and remanence sweeps.
//! - **Block B** (8 cells): pid-reuse revival (1 successor) per policy —
//!   the Resurrection-style sweep.
//! - **Block C** (8 cells): fork-heavy victim (2 CoW children) per policy —
//!   the CoW-retention sweep.
//!
//! The soundness harness (`tests/soundness.rs`) streams real campaigns over
//! this exact product and proves the binding verdicts; the golden test pins
//! the JSON byte-for-byte.

use msa_core::report::{json_array, JsonObject, TextTable};
use msa_core::VictimSchedule;
use zynq_dram::{RemanenceModel, SanitizePolicy};

use crate::flow::{analyze, Analysis};
use crate::lattice::Verdict;
use crate::model::ScenarioShape;

/// Report schema identifier, bumped on any breaking shape change.
pub const SCHEMA: &str = "msa-analyzer-v1";

/// The swap pressure of the audited under-pressure cells (matches the
/// `--swap` experiment).
pub const SWAP_PRESSURE: u8 = 100;

/// CoW children of the audited fork-heavy cells (matches `--swap`).
pub const COW_CHILDREN: usize = 2;

/// Every sanitize policy the audit covers: the five basic policies plus the
/// long-delay background scrubber and both swap-aware policies — the same
/// eight the dynamic swap sweep runs.
pub fn audited_policies() -> Vec<SanitizePolicy> {
    let mut policies: Vec<SanitizePolicy> = SanitizePolicy::all_basic().to_vec();
    policies.push(SanitizePolicy::Background { delay_ticks: 1000 });
    policies.push(SanitizePolicy::SwapScrub);
    policies.push(SanitizePolicy::ZeroOnFreeSwap);
    policies
}

/// The shipped audit matrix, in report order (48 shapes).
pub fn audit_matrix() -> Vec<ScenarioShape> {
    let mut shapes = Vec::new();
    // Block A: the single-victim product.
    for swap in [0u8, SWAP_PRESSURE] {
        for remanence in [
            RemanenceModel::Perfect,
            RemanenceModel::Exponential { half_life_ticks: 1 },
        ] {
            for policy in audited_policies() {
                shapes.push(
                    ScenarioShape::new(policy)
                        .with_swap(swap)
                        .with_remanence(remanence),
                );
            }
        }
    }
    // Block B: pid-reuse revival per policy.
    for policy in audited_policies() {
        shapes.push(
            ScenarioShape::new(policy).with_schedule(VictimSchedule::Revival {
                successors: 1,
                reuse_pid: true,
            }),
        );
    }
    // Block C: fork-heavy victim per policy.
    for policy in audited_policies() {
        shapes.push(
            ScenarioShape::new(policy).with_schedule(VictimSchedule::ForkHeavy {
                children: COW_CHILDREN,
            }),
        );
    }
    shapes
}

/// The analyzed audit matrix: one [`Analysis`] per shipped shape.
#[derive(Debug, Clone)]
pub struct AuditReport {
    cells: Vec<Analysis>,
}

impl Default for AuditReport {
    fn default() -> Self {
        AuditReport::generate()
    }
}

impl AuditReport {
    /// Analyzes the full shipped matrix.
    pub fn generate() -> Self {
        AuditReport {
            cells: audit_matrix().iter().map(analyze).collect(),
        }
    }

    /// The analyzed cells, in report order.
    pub fn cells(&self) -> &[Analysis] {
        &self.cells
    }

    /// Counts of cells per overall verdict `(scrubbed, decay_bounded,
    /// leaks)`.
    pub fn verdict_counts(&self) -> (usize, usize, usize) {
        let count = |v: Verdict| self.cells.iter().filter(|a| a.overall() == v).count();
        (
            count(Verdict::Scrubbed),
            count(Verdict::DecayBounded),
            count(Verdict::Leaks),
        )
    }

    /// Serializes the report as the `msa-analyzer-v1` JSON document — one
    /// cell per line so golden diffs read cell-by-cell.  Deterministic:
    /// equal reports serialize to equal bytes.
    pub fn to_json(&self) -> String {
        let cell_lines: Vec<String> = self
            .cells
            .iter()
            .enumerate()
            .map(|(id, analysis)| cell_json(id, analysis))
            .collect();
        format!(
            "{{\"schema\":\"{SCHEMA}\",\"cells\":[\n{}\n]}}\n",
            cell_lines.join(",\n")
        )
    }

    /// Renders the verdict matrix as a text table (the `msa-analyze` /
    /// `experiments --audit` stdout artifact).
    pub fn render_table(&self) -> String {
        let mut table = TextTable::new(vec![
            "policy",
            "schedule",
            "swap",
            "remanence",
            "scrape mode",
            "dram-frames",
            "swap-slots",
            "cow-frames",
            "pid-reuse",
            "overall",
        ]);
        for analysis in &self.cells {
            let shape = &analysis.shape;
            let mut row = vec![
                shape.policy.to_string(),
                shape.schedule.to_string(),
                format!("{}%", shape.swap_pressure),
                shape.remanence.to_string(),
                shape.scrape.to_string(),
            ];
            row.extend(
                analysis
                    .channels()
                    .map(|(_, flow)| flow.verdict.to_string()),
            );
            row.push(analysis.overall().to_string());
            table.add_row(row);
        }
        table.to_string()
    }
}

/// Serializes one analyzed cell as a single JSON line.
fn cell_json(id: usize, analysis: &Analysis) -> String {
    let shape = &analysis.shape;
    let mut channels = JsonObject::new();
    for (channel, flow) in analysis.channels() {
        let provenance: Vec<String> = flow.provenance.iter().map(|line| quote(line)).collect();
        let flow_json = JsonObject::new()
            .str("verdict", flow.verdict.name())
            .raw("provenance", &json_array(&provenance))
            .finish();
        channels = channels.raw(channel.name(), &flow_json);
    }
    JsonObject::new()
        .u64("id", id as u64)
        .str("policy", &shape.policy.to_string())
        .str("schedule", &shape.schedule.to_string())
        .u64("swap_pressure", u64::from(shape.swap_pressure))
        .str("remanence", &shape.remanence.to_string())
        .str("scrape_mode", &shape.scrape.to_string())
        .str("overall", analysis.overall().name())
        .bool("fully_scrubbed", analysis.fully_scrubbed())
        .raw("channels", &channels.finish())
        .finish()
}

/// Quotes a provenance line as a JSON string (the lines are plain ASCII by
/// construction; escaping is belt-and-braces).
fn quote(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for ch in value.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::Channel;

    #[test]
    fn matrix_has_the_shipped_shape() {
        let matrix = audit_matrix();
        assert_eq!(matrix.len(), 48);
        assert_eq!(audited_policies().len(), 8);
        // 32 single-victim cells, 8 revival, 8 fork-heavy.
        let singles = matrix
            .iter()
            .filter(|s| s.schedule == VictimSchedule::Single)
            .count();
        assert_eq!(singles, 32);
    }

    #[test]
    fn report_is_deterministic_and_internally_consistent() {
        let a = AuditReport::generate();
        let b = AuditReport::generate();
        assert_eq!(a.to_json(), b.to_json());
        let (scrubbed, bounded, leaks) = a.verdict_counts();
        assert_eq!(scrubbed + bounded + leaks, a.cells().len());
        // The matrix is not degenerate: all three verdicts occur.
        assert!(scrubbed > 0 && bounded > 0 && leaks > 0);
    }

    #[test]
    fn json_declares_the_schema_and_every_cell() {
        let report = AuditReport::generate();
        let json = report.to_json();
        assert!(json.starts_with("{\"schema\":\"msa-analyzer-v1\",\"cells\":["));
        assert_eq!(json.matches("\"id\":").count(), report.cells().len());
        assert_eq!(
            json.matches("\"dram-frames\":").count(),
            report.cells().len()
        );
    }

    #[test]
    fn table_renders_one_row_per_cell() {
        let report = AuditReport::generate();
        let table = report.render_table();
        // Header line + separator line + one line per cell.
        assert_eq!(table.lines().count(), report.cells().len() + 2);
    }

    #[test]
    fn swap_aware_policy_is_fully_scrubbed_under_pressure() {
        let report = AuditReport::generate();
        let cell = report
            .cells()
            .iter()
            .find(|a| {
                a.shape.policy == SanitizePolicy::ZeroOnFreeSwap
                    && a.shape.swap_pressure == SWAP_PRESSURE
                    && a.shape.remanence == RemanenceModel::Perfect
            })
            .expect("audited cell");
        assert!(cell.fully_scrubbed());
        assert_eq!(cell.channel(Channel::SwapSlots).verdict, Verdict::Scrubbed);
    }
}
