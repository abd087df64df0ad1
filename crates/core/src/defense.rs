//! Defense evaluation: how each mitigation affects the attack.
//!
//! The paper's related-work and conclusion sections discuss three families of
//! mitigations without quantifying them: memory initialization at process
//! termination (RowClone / RowReset / selective scrubbing), confining the
//! debugger, and randomizing layout.  These sweeps supply the missing numbers
//! (experiments TAB-B, TAB-D, TAB-F and the isolation ablation).
//!
//! Nine sweeps (`evaluate_*`) run on the [`crate::campaign`] engine.  Each
//! is one [`CampaignSpec`] declaring the swept axis plus one row projection,
//! handed to a single private helper that streams the spec
//! ([`CampaignSpec::stream`]) under the caller's [`StreamConfig`] and maps
//! every [`CellRecord`], in cell-index order, to a row.  The worker pool
//! shares offline profiling across the sweep, and the rows come out in the
//! same order whatever the worker count.
//!
//! Because every sweep fans out exclusively through the streaming engine,
//! its collector's exactly-once fold audit covers this module's parallelism
//! too, with no sweep-specific instrumentation needed here.

// Lint audit: indexes and slice bounds here are established by the
// surrounding length checks / loop invariants before use.
#![allow(clippy::indexing_slicing)]

use petalinux_sim::{BoardConfig, IsolationPolicy};
use vitis_ai_sim::ModelKind;
use zynq_dram::{RemanenceModel, SanitizePolicy};
use zynq_mmu::{AllocationOrder, AslrMode};

use crate::attack::{AttackConfig, ScrapeMode};
use crate::campaign::{CampaignSpec, CellRecord, InputKind, StreamConfig};
use crate::error::AttackError;
use crate::scenario::{ScenarioMetrics, ScenarioResult, VictimSchedule};

/// The sanitization policies every policy sweep covers: each basic policy
/// plus a long-delay background scrubber.
fn swept_policies() -> Vec<SanitizePolicy> {
    let mut policies: Vec<SanitizePolicy> = SanitizePolicy::all_basic().to_vec();
    policies.push(SanitizePolicy::Background { delay_ticks: 1000 });
    policies
}

/// A sweep's base spec: one victim model fed the marked (corrupted) input.
fn victim_spec(name: &str, board: BoardConfig, model: ModelKind) -> CampaignSpec {
    CampaignSpec::new(name, board)
        .with_models(vec![model])
        .with_inputs(vec![InputKind::Corrupted])
}

/// Streams `spec` under `config` and projects every record, in cell-index
/// order, to one row.  A projection error (a blocked cell, through
/// [`completed_metrics`]) ends the sweep with that error.
fn sweep<R>(
    spec: CampaignSpec,
    config: &StreamConfig,
    mut project: impl FnMut(&CellRecord) -> Result<R, AttackError>,
) -> Result<Vec<R>, AttackError> {
    let mut rows = Vec::with_capacity(spec.cell_count());
    spec.stream(
        config.clone(),
        |record| {
            rows.push(project(&record)?);
            Ok(())
        },
        |_| {},
    )?;
    Ok(rows)
}

/// The metrics of a cell that a sweep requires to have completed.
///
/// Sweeps that do not themselves ablate isolation (sanitize, layout,
/// multi-tenant) inherit the caller's board policy; on a confined board
/// their cells come back blocked, which these sweeps surface as
/// [`AttackError::Blocked`] rather than panicking or fabricating rows.
fn completed_metrics(record: &CellRecord) -> Result<&ScenarioMetrics, AttackError> {
    match (&record.result, &record.metrics) {
        (ScenarioResult::Completed, Some(metrics)) => Ok(metrics),
        (ScenarioResult::Blocked { step }, _) => Err(AttackError::Blocked { step: step.clone() }),
        (ScenarioResult::Completed, None) => unreachable!("completed cell has metrics"),
    }
}

/// One row of the sanitization-policy sweep (TAB-B).
#[derive(Debug, Clone, PartialEq)]
pub struct SanitizeRow {
    /// The policy under test.
    pub policy: SanitizePolicy,
    /// Whether the attack still identified the model.
    pub model_identified: bool,
    /// Fraction of input pixels recovered exactly.
    pub pixel_recovery: f64,
    /// Residue frames left after the attack.
    pub residue_frames: usize,
    /// Modelled sanitization cost in cycles.
    pub scrub_cost_cycles: f64,
    /// Bytes of other live owners' data destroyed by the sanitizer.
    pub collateral_bytes: u64,
}

/// Sweeps every basic sanitization policy (plus a background scrubber) for
/// one victim model and reports what the attack still recovers.
///
/// # Errors
///
/// Propagates attack errors; returns [`AttackError::Blocked`] when the
/// caller's board confines the attack channel (the sweep inherits the
/// board's isolation policy).
pub fn evaluate_sanitize_policies(
    board: BoardConfig,
    model: ModelKind,
    config: &StreamConfig,
) -> Result<Vec<SanitizeRow>, AttackError> {
    let spec = victim_spec("sanitize-sweep", board, model).with_sanitize_policies(swept_policies());
    sweep(spec, config, |record| {
        let metrics = completed_metrics(record)?;
        Ok(SanitizeRow {
            policy: record.cell.sanitize,
            model_identified: metrics.model_identified,
            pixel_recovery: metrics.pixel_recovery,
            residue_frames: metrics.residue_frames,
            scrub_cost_cycles: metrics.scrub_cost_cycles,
            collateral_bytes: metrics.collateral_bytes,
        })
    })
}

/// One row of the isolation-policy ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct IsolationRow {
    /// The isolation policy under test.
    pub isolation: IsolationPolicy,
    /// Whether the attack completed (vs. being blocked by a denial).
    pub attack_completed: bool,
    /// Whether the model was identified.
    pub model_identified: bool,
    /// Fraction of input pixels recovered.
    pub pixel_recovery: f64,
    /// The step at which the attack was blocked, when it was.
    pub blocked_at: Option<String>,
}

/// Compares the permissive (vulnerable) and confined isolation policies.
///
/// Unlike the other sweeps, a blocked cell is a row here, not an error.
///
/// # Errors
///
/// Propagates non-permission attack errors.
pub fn evaluate_isolation(
    board: BoardConfig,
    model: ModelKind,
    config: &StreamConfig,
) -> Result<Vec<IsolationRow>, AttackError> {
    let spec = victim_spec("isolation-ablation", board, model)
        .with_isolation_policies(vec![IsolationPolicy::Permissive, IsolationPolicy::Confined]);
    sweep(spec, config, |record| {
        Ok(IsolationRow {
            isolation: record.cell.isolation,
            attack_completed: record.completed(),
            model_identified: record.identified(),
            pixel_recovery: record.pixel_recovery(),
            blocked_at: match &record.result {
                ScenarioResult::Completed => None,
                ScenarioResult::Blocked { step } => Some(step.clone()),
            },
        })
    })
}

/// One row of the layout-randomization sweep (TAB-D).
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutRow {
    /// Physical frame allocation order.
    pub allocation_order: AllocationOrder,
    /// Virtual address-space randomization mode.
    pub aslr: AslrMode,
    /// The scraping strategy the attacker used.
    pub scrape_mode: ScrapeMode,
    /// Whether the model was identified.
    pub model_identified: bool,
    /// Fraction of input pixels recovered.
    pub pixel_recovery: f64,
}

/// Sweeps layout randomization (physical allocation order and virtual ASLR)
/// against both scraping strategies.
///
/// # Errors
///
/// Propagates attack errors; returns [`AttackError::Blocked`] on a confined
/// board.
pub fn evaluate_layout_randomization(
    board: BoardConfig,
    model: ModelKind,
    config: &StreamConfig,
) -> Result<Vec<LayoutRow>, AttackError> {
    let spec = victim_spec("layout-sweep", board, model)
        .with_aslr_modes(vec![AslrMode::Disabled, AslrMode::Virtual { seed: 7 }])
        .with_allocation_orders(vec![
            AllocationOrder::Sequential,
            AllocationOrder::Randomized { seed: 0xC0FFEE },
        ])
        .with_scrape_modes(vec![ScrapeMode::ContiguousRange, ScrapeMode::PerPage]);
    sweep(spec, config, |record| {
        let metrics = completed_metrics(record)?;
        Ok(LayoutRow {
            allocation_order: record.cell.allocation_order,
            aslr: record.cell.aslr,
            scrape_mode: record.cell.scrape_mode,
            model_identified: metrics.model_identified,
            pixel_recovery: metrics.pixel_recovery,
        })
    })
}

/// One row of the remanence sweep: what the attack still recovers when the
/// residue decays analog-style (Pentimento) between termination and the
/// scrape.
#[derive(Debug, Clone, PartialEq)]
pub struct RemanenceRow {
    /// The remanence decay model under test.
    pub remanence: RemanenceModel,
    /// Whether the model was identified.
    pub model_identified: bool,
    /// Fraction of input pixels recovered.
    pub pixel_recovery: f64,
    /// Non-zero residue bytes in the raw store when the attack ended.
    pub residue_bytes_raw: u64,
    /// Of those, bytes the decay view had driven to zero.
    pub residue_bytes_decayed: u64,
    /// Bits the decay view flipped away.
    pub residue_bits_flipped: u64,
    /// Fraction of the raw residue still readable through the decay view.
    pub decayed_recovery: f64,
}

/// The remanence models every remanence sweep covers: the perfect baseline,
/// exponential byte decay at shortening half-lives, and a per-bit discharge
/// model.
pub fn swept_remanence_models() -> Vec<RemanenceModel> {
    vec![
        RemanenceModel::Perfect,
        RemanenceModel::Exponential {
            half_life_ticks: 16,
        },
        RemanenceModel::Exponential { half_life_ticks: 4 },
        RemanenceModel::Exponential { half_life_ticks: 1 },
        RemanenceModel::BitFlip { rate_ppm: 120_000 },
    ]
}

/// Sweeps the remanence decay axis ([`swept_remanence_models`]) against the
/// paper's single-sweep attacker ([`ScrapeMode::ContiguousRange`]): how fast
/// the attack's recovery falls off as retention shortens (the robustness
/// question Pentimento raises).  Rows come back in model order.
///
/// # Errors
///
/// Propagates attack errors; returns [`AttackError::Blocked`] when the
/// caller's board confines the attack channel.
pub fn evaluate_remanence(
    board: BoardConfig,
    model: ModelKind,
    config: &StreamConfig,
) -> Result<Vec<RemanenceRow>, AttackError> {
    let spec = victim_spec("remanence-sweep", board, model)
        .with_remanence_models(swept_remanence_models())
        .with_scrape_modes(vec![ScrapeMode::ContiguousRange]);
    sweep(spec, config, |record| {
        let metrics = completed_metrics(record)?;
        let lifetime = metrics.residue_lifetime;
        Ok(RemanenceRow {
            remanence: record.cell.remanence,
            model_identified: metrics.model_identified,
            pixel_recovery: metrics.pixel_recovery,
            residue_bytes_raw: lifetime.residue_bytes_raw,
            residue_bytes_decayed: lifetime.residue_bytes_decayed,
            residue_bits_flipped: lifetime.residue_bits_flipped,
            decayed_recovery: lifetime.decayed_recovery_rate(),
        })
    })
}

/// One row of the reconstruction sweep: what the raw exact-matching attacker
/// recovers at a remanence point versus the decay-tolerant reconstructor
/// ([`crate::analysis::reconstruct`]) at the **same cell seed** — the paired
/// columns of the `--reconstruct` experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconstructRow {
    /// The remanence decay model under test.
    pub remanence: RemanenceModel,
    /// Snapshots fused by the multi-snapshot read (1 = single read).
    pub snapshots: usize,
    /// Whether the exact-matching baseline identified the model.
    pub baseline_identified: bool,
    /// Pixel recovery of the exact-matching baseline.
    pub baseline_recovery: f64,
    /// Whether the reconstructing attacker identified the model (exact or
    /// fuzzy).
    pub reconstructed_identified: bool,
    /// Pixel recovery after fusion, fuzzy identification, and repair.
    pub reconstructed_recovery: f64,
    /// Fraction of the raw residue still readable through the decay view —
    /// the physical ceiling both attackers share.
    pub decayed_recovery: f64,
}

impl ReconstructRow {
    /// `reconstructed_recovery / baseline_recovery`: how much the
    /// reconstructor buys at this remanence point.  1.0 when both recovered
    /// nothing; infinite when only reconstruction recovered pixels.
    pub fn recovery_gain(&self) -> f64 {
        if self.baseline_recovery > 0.0 {
            self.reconstructed_recovery / self.baseline_recovery
        } else if self.reconstructed_recovery > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    }
}

/// Sweeps the remanence decay axis ([`swept_remanence_models`]) twice at
/// matched cell seeds: once with the exact-matching single-read attacker
/// (the [`evaluate_remanence`] baseline) and once with the
/// decay-tolerant reconstructor — [`ScrapeMode::MultiSnapshot`] fusion plus
/// fuzzy identification and neighbor repair ([`AttackConfig::reconstruct`]).
///
/// Both sweeps use the same spec shape (single-value axes around the
/// remanence axis) and the same campaign seed, so cell index *i* draws the
/// same decay pattern in both — each row is a true paired comparison, and
/// the baseline column reproduces [`evaluate_remanence`] byte for byte.
///
/// # Errors
///
/// Propagates attack errors; returns [`AttackError::Blocked`] when the
/// caller's board confines the attack channel.
pub fn evaluate_reconstruction(
    board: BoardConfig,
    model: ModelKind,
    snapshots: usize,
    config: &StreamConfig,
) -> Result<Vec<ReconstructRow>, AttackError> {
    let attacker = |mode: ScrapeMode, reconstruct: bool| {
        let spec = victim_spec("remanence-sweep", board, model)
            .with_remanence_models(swept_remanence_models())
            .with_scrape_modes(vec![mode])
            .with_attack_config(AttackConfig {
                reconstruct,
                ..AttackConfig::default()
            });
        sweep(spec, config, |record| {
            let metrics = completed_metrics(record)?;
            Ok((
                metrics.model_identified,
                metrics.pixel_recovery,
                metrics.residue_lifetime.decayed_recovery_rate(),
            ))
        })
    };
    let baseline = attacker(ScrapeMode::ContiguousRange, false)?;
    let reconstructed = attacker(ScrapeMode::MultiSnapshot { snapshots }, true)?;
    Ok(swept_remanence_models()
        .into_iter()
        .zip(baseline)
        .zip(reconstructed)
        .map(|((remanence, base), recon)| ReconstructRow {
            remanence,
            snapshots,
            baseline_identified: base.0,
            baseline_recovery: base.1,
            reconstructed_identified: recon.0,
            reconstructed_recovery: recon.1,
            decayed_recovery: base.2,
        })
        .collect())
}

/// One row of the revival (Resurrection-style) sweep: what a sanitization
/// policy leaves for a successor process that re-allocates the victim's pid
/// and frames before the scrape runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RevivalRow {
    /// The policy under test.
    pub policy: SanitizePolicy,
    /// Residue frames the victim left at termination.
    pub victim_frames: usize,
    /// Heap frames of the revived successor process.
    pub revived_heap_frames: usize,
    /// Of those, frames that still held residue when the revived process
    /// first read them.
    pub inherited_frames: usize,
    /// `inherited_frames / revived_heap_frames`.
    pub inheritance_rate: f64,
    /// Victim residue frames overwritten or scrubbed before the scrape.
    pub frames_lost_before_scrape: usize,
    /// Whether the late-arriving attacker still identified the victim model.
    pub model_identified: bool,
    /// Fraction of input pixels the late attacker still recovered.
    pub pixel_recovery: f64,
}

/// Sweeps every sanitization policy through a Resurrection-style revival:
/// the victim terminates, a successor re-allocates its pid and frames, and
/// only then does the attacker scrape.
///
/// Two quantities come out: how much residue the *revived process* inherits
/// at allocation time (the Resurrection Attack's channel), and how much the
/// *attacker* still finds once the revival has overwritten the frames (the
/// paper's channel, measured one tenant-lifetime too late).
///
/// # Errors
///
/// Propagates attack errors; returns [`AttackError::Blocked`] when the
/// caller's board confines the attack channel.
pub fn evaluate_revival(
    board: BoardConfig,
    model: ModelKind,
    config: &StreamConfig,
) -> Result<Vec<RevivalRow>, AttackError> {
    let spec = victim_spec("revival-sweep", board, model)
        .with_sanitize_policies(swept_policies())
        .with_schedules(vec![VictimSchedule::Revival {
            successors: 1,
            reuse_pid: true,
        }]);
    sweep(spec, config, |record| {
        let metrics = completed_metrics(record)?;
        let lifetime = metrics.residue_lifetime;
        Ok(RevivalRow {
            policy: record.cell.sanitize,
            victim_frames: lifetime.victim_frames,
            revived_heap_frames: lifetime.revived_heap_frames,
            inherited_frames: lifetime.revival_inherited_frames,
            inheritance_rate: lifetime.inheritance_rate(),
            frames_lost_before_scrape: lifetime.frames_lost_before_scrape,
            model_identified: metrics.model_identified,
            pixel_recovery: metrics.pixel_recovery,
        })
    })
}

/// One row of the multi-tenant sweep (TAB-F): what a sanitization policy does
/// to a *co-resident, still-running* tenant when another tenant terminates.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTenantRow {
    /// The policy under test.
    pub policy: SanitizePolicy,
    /// Whether the attacker could still identify the terminated tenant's
    /// model.
    pub victim_model_identified: bool,
    /// Bytes of the still-running tenant's data destroyed by the sanitizer.
    pub active_tenant_bytes_clobbered: u64,
    /// Whether the still-running tenant's input image survived intact in its
    /// own heap.
    pub active_tenant_data_intact: bool,
}

/// Evaluates each sanitization policy in a two-tenant setting: tenant A
/// terminates (and is attacked), tenant B keeps running.
///
/// The campaign schedule axis is [`VictimSchedule::MultiTenant`]: the
/// allocation history is deliberately fragmented (a warm-up process is
/// spawned and torn down before the victim starts) so the victim's physical
/// frames are **non-contiguous and straddle the active tenant's frames** —
/// the situation in which the paper argues contiguous-initialization schemes
/// are unsafe because they "can include active guest user data".
///
/// The attacker uses the per-page scraping strategy, since a fragmented heap
/// defeats the endpoint-based read anyway.
///
/// # Errors
///
/// Propagates kernel/attack errors; returns [`AttackError::Blocked`] on a
/// confined board.
pub fn evaluate_multi_tenant(
    board: BoardConfig,
    victim_model: ModelKind,
    active_model: ModelKind,
    config: &StreamConfig,
) -> Result<Vec<MultiTenantRow>, AttackError> {
    let spec = victim_spec("multi-tenant-sweep", board, victim_model)
        .with_sanitize_policies(swept_policies())
        .with_scrape_modes(vec![ScrapeMode::PerPage])
        .with_schedules(vec![VictimSchedule::MultiTenant {
            active_model,
            warmup_pages: 16,
        }]);
    sweep(spec, config, |record| {
        let metrics = completed_metrics(record)?;
        Ok(MultiTenantRow {
            policy: record.cell.sanitize,
            victim_model_identified: metrics.model_identified,
            active_tenant_bytes_clobbered: metrics.collateral_bytes,
            active_tenant_data_intact: metrics
                .active_tenant_intact
                .expect("multi-tenant schedule reports co-tenant state"),
        })
    })
}

/// One row of the compressed-swap sweep: what each sanitization policy
/// leaves in the swap store, and what the attacker still recovers when it
/// overlays decompressed slots onto the scraped dump.
#[derive(Debug, Clone, PartialEq)]
pub struct SwapRow {
    /// The policy under test.
    pub policy: SanitizePolicy,
    /// Whether the policy scrubs swap slots in addition to DRAM frames.
    pub scrubs_swap: bool,
    /// Victim bytes still resident in compressed swap after termination.
    pub swap_resident_bytes: u64,
    /// Residue frames left in DRAM after the attack.
    pub residue_frames: usize,
    /// Whether the attack still identified the model.
    pub model_identified: bool,
    /// Fraction of input pixels recovered exactly.
    pub pixel_recovery: f64,
}

/// Sweeps sanitization policies on a board under memory pressure, where the
/// kernel swapped the victim's cold heap pages into a compressed swap store
/// before termination.
///
/// Frame-oriented scrubbers never touch the swap slots, so the residue
/// simply moves substrate: the attacker decompresses the surviving slots and
/// overlays them onto the (scrubbed) DRAM dump.  Only the swap-aware
/// policies ([`SanitizePolicy::SwapScrub`], [`SanitizePolicy::ZeroOnFreeSwap`])
/// close the channel they each cover.
///
/// # Errors
///
/// Propagates attack errors; returns [`AttackError::Blocked`] when the
/// caller's board confines the attack channel.
pub fn evaluate_swap(
    board: BoardConfig,
    model: ModelKind,
    swap_pressure: u8,
    config: &StreamConfig,
) -> Result<Vec<SwapRow>, AttackError> {
    let mut policies = swept_policies();
    policies.push(SanitizePolicy::SwapScrub);
    policies.push(SanitizePolicy::ZeroOnFreeSwap);
    let spec = victim_spec("swap-sweep", board.with_swap(swap_pressure), model)
        .with_sanitize_policies(policies);
    sweep(spec, config, |record| {
        let metrics = completed_metrics(record)?;
        Ok(SwapRow {
            policy: record.cell.sanitize,
            scrubs_swap: record.cell.sanitize.scrubs_swap(),
            swap_resident_bytes: metrics.residue_lifetime.swap_resident_bytes,
            residue_frames: metrics.residue_frames,
            model_identified: metrics.model_identified,
            pixel_recovery: metrics.pixel_recovery,
        })
    })
}

/// One row of the copy-on-write retention sweep: residue a fork-heavy victim
/// leaves behind through frames its children still share at scrape time.
#[derive(Debug, Clone, PartialEq)]
pub struct CowRow {
    /// The policy under test.
    pub policy: SanitizePolicy,
    /// Residue frames the victim left at termination.
    pub victim_frames: usize,
    /// Of those, frames kept alive past termination by CoW-sharing children.
    pub cow_inherited_frames: usize,
    /// Whether the attack still identified the model.
    pub model_identified: bool,
    /// Fraction of input pixels recovered exactly.
    pub pixel_recovery: f64,
}

/// Sweeps sanitization policies through a fork-heavy victim: the victim
/// forks `children` CoW children before terminating, so its heap frames stay
/// referenced — and therefore allocated — when it dies.
///
/// Frame-oriented scrubbers only sanitize frames that actually return to the
/// free list, so the shared frames sail past even [`SanitizePolicy::ZeroOnFree`]
/// and the attacker reads them out of the children's address spaces.
///
/// # Errors
///
/// Propagates attack errors; returns [`AttackError::Blocked`] when the
/// caller's board confines the attack channel.
pub fn evaluate_cow_retention(
    board: BoardConfig,
    model: ModelKind,
    children: usize,
    config: &StreamConfig,
) -> Result<Vec<CowRow>, AttackError> {
    let spec = victim_spec("cow-sweep", board, model)
        .with_sanitize_policies(swept_policies())
        .with_schedules(vec![VictimSchedule::ForkHeavy { children }]);
    sweep(spec, config, |record| {
        let metrics = completed_metrics(record)?;
        let lifetime = metrics.residue_lifetime;
        Ok(CowRow {
            policy: record.cell.sanitize,
            victim_frames: lifetime.victim_frames,
            cow_inherited_frames: lifetime.cow_inherited_frames,
            model_identified: metrics.model_identified,
            pixel_recovery: metrics.pixel_recovery,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn board() -> BoardConfig {
        BoardConfig::tiny_for_tests()
    }

    fn config() -> StreamConfig {
        StreamConfig::new().with_workers(2)
    }

    #[test]
    fn sanitize_sweep_has_expected_shape() {
        let rows = evaluate_sanitize_policies(board(), ModelKind::SqueezeNet, &config()).unwrap();
        assert_eq!(rows.len(), 6);

        let by_policy = |p: SanitizePolicy| rows.iter().find(|r| r.policy == p).unwrap();

        // No sanitization: full recovery, zero cost.
        let none = by_policy(SanitizePolicy::None);
        assert!(none.model_identified);
        assert!(none.pixel_recovery > 0.99);
        assert_eq!(none.scrub_cost_cycles, 0.0);
        assert!(none.residue_frames > 0);

        // Every eager scrubbing policy defeats the attack.
        for policy in [
            SanitizePolicy::ZeroOnFree,
            SanitizePolicy::RowClone,
            SanitizePolicy::RowReset,
            SanitizePolicy::SelectiveScrub,
        ] {
            let row = by_policy(policy);
            assert!(
                !row.model_identified,
                "{policy} should defeat identification"
            );
            assert_eq!(row.pixel_recovery, 0.0, "{policy} should defeat recovery");
            assert!(row.scrub_cost_cycles > 0.0);
        }

        // Cost ordering: in-DRAM bulk schemes are cheaper than CPU zeroing.
        assert!(
            by_policy(SanitizePolicy::RowClone).scrub_cost_cycles
                < by_policy(SanitizePolicy::ZeroOnFree).scrub_cost_cycles
        );

        // A long-delay background scrubber leaves the window open: the attack
        // still succeeds.
        let background = rows
            .iter()
            .find(|r| matches!(r.policy, SanitizePolicy::Background { .. }))
            .unwrap();
        assert!(background.model_identified);
        assert!(background.pixel_recovery > 0.99);
    }

    #[test]
    fn swap_sweep_shows_frame_only_scrubbers_leaking_through_swap() {
        let rows = evaluate_swap(board(), ModelKind::SqueezeNet, 100, &config()).unwrap();
        assert_eq!(rows.len(), 8);
        let by_policy = |p: SanitizePolicy| rows.iter().find(|r| r.policy == p).unwrap();

        // Frame-only zeroing moves the residue, it does not remove it: the
        // DRAM dump comes back scrubbed, but the attacker rebuilds it from
        // the surviving compressed-swap slots.
        let zero = by_policy(SanitizePolicy::ZeroOnFree);
        assert!(!zero.scrubs_swap);
        assert!(zero.swap_resident_bytes > 0);
        assert!(zero.model_identified);
        assert!(zero.pixel_recovery > 0.99);

        // Swap-aware zeroing closes both substrates.
        let both = by_policy(SanitizePolicy::ZeroOnFreeSwap);
        assert!(both.scrubs_swap);
        assert_eq!(both.swap_resident_bytes, 0);
        assert!(!both.model_identified);
        assert_eq!(both.pixel_recovery, 0.0);

        // SwapScrub alone empties the swap store but leaves the DRAM frames:
        // the paper's original channel remains wide open.
        let swap_only = by_policy(SanitizePolicy::SwapScrub);
        assert_eq!(swap_only.swap_resident_bytes, 0);
        assert!(swap_only.residue_frames > 0);
        assert!(swap_only.model_identified);
        assert!(swap_only.pixel_recovery > 0.99);

        // No sanitization at all: swap residue and DRAM residue coexist.
        let none = by_policy(SanitizePolicy::None);
        assert!(none.swap_resident_bytes > 0);
        assert!(none.residue_frames > 0);
        assert!(none.model_identified);
    }

    #[test]
    fn cow_sweep_shows_shared_frames_sailing_past_zero_on_free() {
        let rows = evaluate_cow_retention(board(), ModelKind::SqueezeNet, 2, &config()).unwrap();
        assert_eq!(rows.len(), 6);
        let by_policy = |p: SanitizePolicy| rows.iter().find(|r| r.policy == p).unwrap();

        // Zero-on-free only sanitizes frames that return to the free list;
        // the children's CoW references keep the victim's heap allocated, so
        // the attacker recovers everything.
        let zero = by_policy(SanitizePolicy::ZeroOnFree);
        assert!(zero.victim_frames > 0);
        assert!(zero.cow_inherited_frames > 0);
        assert!(zero.cow_inherited_frames <= zero.victim_frames);
        assert!(zero.model_identified);
        assert!(zero.pixel_recovery > 0.99);

        // The unsanitized baseline leaks the same way.
        let none = by_policy(SanitizePolicy::None);
        assert!(none.cow_inherited_frames > 0);
        assert!(none.model_identified);
    }

    #[test]
    fn sweeps_on_a_confined_board_error_instead_of_fabricating_rows() {
        let confined = board().with_isolation(IsolationPolicy::Confined);
        assert!(matches!(
            evaluate_sanitize_policies(confined, ModelKind::SqueezeNet, &config()),
            Err(AttackError::Blocked { .. })
        ));
        assert!(matches!(
            evaluate_layout_randomization(confined, ModelKind::SqueezeNet, &config()),
            Err(AttackError::Blocked { .. })
        ));
    }

    #[test]
    fn isolation_sweep_blocks_only_the_confined_board() {
        let rows = evaluate_isolation(board(), ModelKind::SqueezeNet, &config()).unwrap();
        assert_eq!(rows.len(), 2);
        let permissive = &rows[0];
        assert_eq!(permissive.isolation, IsolationPolicy::Permissive);
        assert!(permissive.attack_completed);
        assert!(permissive.model_identified);
        assert!(permissive.pixel_recovery > 0.99);
        assert!(permissive.blocked_at.is_none());

        let confined = &rows[1];
        assert_eq!(confined.isolation, IsolationPolicy::Confined);
        assert!(!confined.attack_completed);
        assert!(!confined.model_identified);
        assert_eq!(confined.pixel_recovery, 0.0);
        assert!(confined.blocked_at.is_some());
    }

    #[test]
    fn layout_sweep_shows_per_page_attacker_beating_randomization() {
        let rows =
            evaluate_layout_randomization(board(), ModelKind::SqueezeNet, &config()).unwrap();
        assert_eq!(rows.len(), 8);

        let find = |order_random: bool, mode: ScrapeMode| {
            rows.iter()
                .find(|r| {
                    matches!(r.allocation_order, AllocationOrder::Randomized { .. }) == order_random
                        && r.aslr == AslrMode::Disabled
                        && r.scrape_mode == mode
                })
                .unwrap()
        };

        // Row order matches the hand-rolled sweep this replaced: ASLR varies
        // slowest, then allocation order, then scrape mode.
        assert_eq!(rows[0].allocation_order, AllocationOrder::Sequential);
        assert_eq!(rows[0].aslr, AslrMode::Disabled);
        assert_eq!(rows[0].scrape_mode, ScrapeMode::ContiguousRange);
        assert!(matches!(
            rows[2].allocation_order,
            AllocationOrder::Randomized { .. }
        ));
        assert_eq!(rows[2].aslr, AslrMode::Disabled);
        assert_eq!(rows[4].allocation_order, AllocationOrder::Sequential);
        assert!(matches!(rows[4].aslr, AslrMode::Virtual { .. }));

        // Deterministic layout: both attackers succeed fully.
        assert!(find(false, ScrapeMode::ContiguousRange).pixel_recovery > 0.99);
        assert!(find(false, ScrapeMode::PerPage).pixel_recovery > 0.99);

        // Randomized physical layout: the paper's contiguous-range method
        // degrades badly, while the per-page attacker is unaffected.
        let contiguous_rand = find(true, ScrapeMode::ContiguousRange);
        let per_page_rand = find(true, ScrapeMode::PerPage);
        assert!(contiguous_rand.pixel_recovery < 0.5);
        assert!(per_page_rand.pixel_recovery > 0.99);
        assert!(per_page_rand.model_identified);

        // Virtual ASLR alone does not stop either attacker (offsets are
        // heap-relative).
        let aslr_row = rows
            .iter()
            .find(|r| {
                r.aslr != AslrMode::Disabled
                    && r.allocation_order == AllocationOrder::Sequential
                    && r.scrape_mode == ScrapeMode::ContiguousRange
            })
            .unwrap();
        assert!(aslr_row.pixel_recovery > 0.99);
    }

    #[test]
    fn remanence_sweep_decays_recovery() {
        let rows = evaluate_remanence(board(), ModelKind::SqueezeNet, &config()).unwrap();
        let models = swept_remanence_models();
        assert_eq!(rows.len(), models.len());
        for (row, model) in rows.iter().zip(&models) {
            assert_eq!(row.remanence, *model);
        }

        // The perfect baseline reproduces the pre-remanence attack exactly.
        let perfect = &rows[0];
        assert_eq!(perfect.remanence, RemanenceModel::Perfect);
        assert!(perfect.model_identified);
        assert!(perfect.pixel_recovery > 0.99);
        assert_eq!(perfect.residue_bits_flipped, 0);
        assert_eq!(perfect.decayed_recovery, 1.0);

        // Shortening the half-life monotonically shrinks what survives: the
        // same cells decay, more of them, never fewer.
        let exp = |hl: u64| {
            rows.iter()
                .find(|r| {
                    r.remanence
                        == RemanenceModel::Exponential {
                            half_life_ticks: hl,
                        }
                })
                .unwrap()
        };
        assert!(exp(16).decayed_recovery >= exp(4).decayed_recovery);
        assert!(exp(4).decayed_recovery >= exp(1).decayed_recovery);
        assert!(exp(1).decayed_recovery < 1.0);
        assert!(exp(1).residue_bytes_decayed > 0);
        assert!(exp(1).pixel_recovery < perfect.pixel_recovery);

        // The bit-flip model degrades bits without necessarily zeroing whole
        // bytes.
        let bitflip = rows
            .iter()
            .find(|r| matches!(r.remanence, RemanenceModel::BitFlip { .. }))
            .unwrap();
        assert!(bitflip.residue_bits_flipped > 0);
        assert!(bitflip.pixel_recovery < perfect.pixel_recovery);
    }

    #[test]
    fn reconstruction_sweep_beats_the_exact_baseline_at_matched_seeds() {
        let rows = evaluate_reconstruction(board(), ModelKind::SqueezeNet, 3, &config()).unwrap();
        assert_eq!(rows.len(), swept_remanence_models().len());

        // The baseline column reproduces the remanence sweep byte for byte —
        // same spec shape, same seeds.
        let remanence = evaluate_remanence(board(), ModelKind::SqueezeNet, &config()).unwrap();
        for (row, base) in rows.iter().zip(&remanence) {
            assert_eq!(row.remanence, base.remanence);
            assert_eq!(row.snapshots, 3);
            assert_eq!(row.baseline_identified, base.model_identified);
            assert_eq!(row.baseline_recovery, base.pixel_recovery);
            assert_eq!(row.decayed_recovery, base.decayed_recovery);
        }

        // Perfect remanence: nothing to repair, and the reconstructor must
        // pass a clean read through untouched.
        let perfect = &rows[0];
        assert_eq!(perfect.remanence, RemanenceModel::Perfect);
        assert!(perfect.reconstructed_identified);
        assert_eq!(perfect.reconstructed_recovery, perfect.baseline_recovery);
        assert_eq!(perfect.recovery_gain(), 1.0);

        // Every decayed point: reconstruction strictly beats exact matching.
        for row in &rows[1..] {
            assert!(
                row.reconstructed_identified,
                "reconstruction must identify the model at {:?}",
                row.remanence
            );
            assert!(
                row.reconstructed_recovery > row.baseline_recovery,
                "reconstruction must beat the baseline at {:?} ({} vs {})",
                row.remanence,
                row.reconstructed_recovery,
                row.baseline_recovery
            );
            assert!(row.recovery_gain() > 1.0);
        }
    }

    #[test]
    fn revival_sweep_quantifies_the_resurrection_window() {
        let rows = evaluate_revival(board(), ModelKind::SqueezeNet, &config()).unwrap();
        assert_eq!(rows.len(), 6);
        let by_policy = |p: SanitizePolicy| rows.iter().find(|r| r.policy == p).unwrap();

        // No sanitization: the revived process inherits victim residue, and
        // its overwrite destroys what the attacker came for.
        let none = by_policy(SanitizePolicy::None);
        assert!(none.victim_frames > 0);
        assert!(none.inherited_frames > 0);
        assert!(none.inheritance_rate > 0.0);
        assert!(none.frames_lost_before_scrape > 0);
        assert!(!none.model_identified);

        // Every frame-exact scrubbing policy drives revival inheritance to
        // zero — this is the acceptance bar for the defense.
        for policy in [
            SanitizePolicy::ZeroOnFree,
            SanitizePolicy::RowClone,
            SanitizePolicy::SelectiveScrub,
        ] {
            let row = by_policy(policy);
            assert_eq!(
                row.inherited_frames, 0,
                "{policy} must close the resurrection window"
            );
            assert_eq!(row.inheritance_rate, 0.0);
            assert_eq!(row.victim_frames, 0);
        }

        // RowReset is bank-granular: on the interleaved DDR4 geometry a
        // frame's base always decomposes to bank group 0, so only that
        // stripe of each frame is reset and the other bank groups' columns
        // survive — the revived process still inherits partial residue.
        // (Another face of the paper's argument that bulk DRAM schemes are a
        // poor fit for frame-granular sanitization.)
        let rowreset = by_policy(SanitizePolicy::RowReset);
        assert!(rowreset.victim_frames > 0);
        assert!(rowreset.inherited_frames > 0);

        // A long-delay background scrubber leaves the window open: the
        // revived process still inherits inside the delay.
        let background = rows
            .iter()
            .find(|r| matches!(r.policy, SanitizePolicy::Background { .. }))
            .unwrap();
        assert!(background.inherited_frames > 0);
    }

    #[test]
    fn revival_sweep_on_a_confined_board_errors() {
        let confined = board().with_isolation(IsolationPolicy::Confined);
        assert!(matches!(
            evaluate_revival(confined, ModelKind::SqueezeNet, &config()),
            Err(AttackError::Blocked { .. })
        ));
    }

    #[test]
    fn multi_tenant_sweep_shows_collateral_damage_of_bulk_schemes() {
        let rows = evaluate_multi_tenant(
            board(),
            ModelKind::SqueezeNet,
            ModelKind::MobileNetV2,
            &config(),
        )
        .unwrap();
        assert_eq!(rows.len(), 6);
        let by_policy = |p: SanitizePolicy| rows.iter().find(|r| r.policy == p).unwrap();

        // No sanitization: attack succeeds, co-tenant untouched.
        let none = by_policy(SanitizePolicy::None);
        assert!(none.victim_model_identified);
        assert!(none.active_tenant_data_intact);
        assert_eq!(none.active_tenant_bytes_clobbered, 0);

        // Precise schemes protect the victim without harming the co-tenant.
        for policy in [SanitizePolicy::ZeroOnFree, SanitizePolicy::SelectiveScrub] {
            let row = by_policy(policy);
            assert!(!row.victim_model_identified);
            assert!(
                row.active_tenant_data_intact,
                "{policy} must not clobber the co-tenant"
            );
            assert_eq!(row.active_tenant_bytes_clobbered, 0);
        }

        // Bulk schemes defeat the attack but destroy the co-tenant's data
        // (the paper's argument against them in multi-tenant settings).
        for policy in [SanitizePolicy::RowClone, SanitizePolicy::RowReset] {
            let row = by_policy(policy);
            assert!(!row.victim_model_identified);
            assert!(
                row.active_tenant_bytes_clobbered > 0,
                "{policy} should clobber"
            );
            assert!(!row.active_tenant_data_intact);
        }
    }
}
