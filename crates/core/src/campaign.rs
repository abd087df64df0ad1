//! The campaign engine: declarative, parallel scenario matrices.
//!
//! The paper's evaluation (§IV–§V) is a matrix — models × inputs × sanitize
//! policies × isolation × layout × scrape modes × boards — and this module
//! turns each such matrix into data instead of hand-rolled loops:
//!
//! - [`CampaignSpec`] declares the axes.  Every axis defaults to a single
//!   neutral value, so a spec only names the dimensions it sweeps.
//! - [`CampaignSpec::expand`] produces the full cross product as seeded
//!   [`CampaignCell`]s in a fixed, documented order (independent of how the
//!   campaign is later scheduled).
//! - [`CampaignSpec::stream`] executes the cells on a scoped worker pool
//!   ([`StreamConfig::with_workers`]), sharing one pre-built
//!   [`ProfileDatabase`] per board instead of profiling in every cell, hands
//!   each [`CellRecord`] to a visitor in cell-index order and folds its
//!   [`ScenarioMetrics`] into a [`CampaignSummary`].
//!
//! Records reach the visitor and the fold in cell-index order, so a summary
//! is **byte-identical regardless of worker count**: only the wall-clock
//! fields differ between a serial and a 16-way run.
//!
//! # Example
//!
//! ```
//! use msa_core::campaign::{CampaignSpec, InputKind, StreamConfig};
//! use petalinux_sim::BoardConfig;
//! use vitis_ai_sim::ModelKind;
//! use zynq_dram::SanitizePolicy;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let summary = CampaignSpec::new("tiny", BoardConfig::tiny_for_tests())
//!     .with_models(vec![ModelKind::SqueezeNet, ModelKind::MobileNetV2])
//!     .with_inputs(vec![InputKind::Corrupted])
//!     .with_sanitize_policies(vec![SanitizePolicy::None, SanitizePolicy::SelectiveScrub])
//!     .stream(StreamConfig::default(), |_| Ok(()), |_| {})?;
//! assert_eq!(summary.cells_total, 4);
//! // Unsanitized cells leak; scrubbed cells do not.
//! assert_eq!(summary.totals.identified, 2);
//! # Ok(())
//! # }
//! ```

// Lint audit: address arithmetic here is bounds-checked against the
// DRAM window before any narrowing cast or direct index; offsets are
// derived from validated window-relative coordinates.
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

pub mod stream;

pub use stream::{
    Adversary, AxisGroups, CampaignAccumulator, CampaignSummary, GroupProgress, GroupSummary,
    StreamConfig,
};

use std::time::{Duration, Instant};

use petalinux_sim::{BoardConfig, IsolationPolicy};
use vitis_ai_sim::{Image, ModelKind};
use zynq_dram::{RemanenceModel, SanitizePolicy};
use zynq_mmu::{AllocationOrder, AslrMode};

use crate::attack::{AttackConfig, ScrapeMode};
use crate::error::AttackError;
use crate::metrics::StepTimings;
use crate::profile::{ProfileDatabase, Profiler};
use crate::scenario::{AttackScenario, ScenarioMetrics, ScenarioResult, VictimSchedule};

/// Which input image the victim feeds its model — a campaign axis standing in
/// for "input kind" in the paper's matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[derive(Default)]
pub enum InputKind {
    /// The sample photograph (the paper's benign input).
    #[default]
    SamplePhoto,
    /// The all-`0xFFFFFF` corrupted image (the paper's marked input).
    Corrupted,
    /// The `0x555555` profiling sentinel.
    Sentinel,
}

impl InputKind {
    /// Materializes the input at `model`'s native dimensions.
    pub fn materialize(self, model: ModelKind) -> Image {
        let (w, h) = model.input_dims();
        match self {
            InputKind::SamplePhoto => Image::sample_photo(w, h),
            InputKind::Corrupted => Image::corrupted(w, h),
            InputKind::Sentinel => Image::profiling_sentinel(w, h),
        }
    }
}

impl std::fmt::Display for InputKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InputKind::SamplePhoto => write!(f, "sample-photo"),
            InputKind::Corrupted => write!(f, "corrupted"),
            InputKind::Sentinel => write!(f, "sentinel"),
        }
    }
}

/// One fully resolved point of the campaign matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    /// Position of the cell in the spec's deterministic expansion order.
    pub index: usize,
    /// Position of the cell's board in the spec's board axis (the key the
    /// engine shares profile databases by — names need not be unique).
    pub board_index: usize,
    /// Name of the board axis entry this cell runs on.
    pub board_name: String,
    /// The fully resolved board configuration (axis overrides applied).
    pub board: BoardConfig,
    /// The victim model.
    pub model: ModelKind,
    /// The victim input kind.
    pub input: InputKind,
    /// The effective sanitize policy.
    pub sanitize: SanitizePolicy,
    /// The effective isolation policy.
    pub isolation: IsolationPolicy,
    /// The effective virtual-address randomization mode.
    pub aslr: AslrMode,
    /// The effective physical allocation order.
    pub allocation_order: AllocationOrder,
    /// The effective DRAM remanence decay model.
    pub remanence: RemanenceModel,
    /// The attacker's scraping strategy.
    pub scrape_mode: ScrapeMode,
    /// The victim-traffic schedule.
    pub schedule: VictimSchedule,
    /// Whether the decay-tolerant reconstruction layer is enabled for this
    /// cell (`None` when the spec does not sweep the axis — the base attack
    /// config's setting applies).
    pub reconstruct: Option<bool>,
    /// The per-cell seed (spec seed mixed with the cell index).
    pub seed: u64,
}

impl CampaignCell {
    /// A compact human-readable label (used by progress output and tables).
    /// The remanence model is appended only when it deviates from the perfect
    /// default, so pre-remanence labels are unchanged.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}/{}/{}/{}/{}/{}",
            self.board_name, self.model, self.input, self.sanitize, self.scrape_mode, self.schedule
        );
        if !self.remanence.is_perfect() {
            label.push('/');
            label.push_str(&self.remanence.to_string());
        }
        // Swept reconstruction is called out either way; unswept cells keep
        // their pre-reconstruction labels.
        match self.reconstruct {
            Some(true) => label.push_str("/reconstruct"),
            Some(false) => label.push_str("/exact"),
            None => {}
        }
        label
    }

    /// Produces a deterministic synthetic [`CellRecord`] derived purely
    /// from the cell's seed — no scenario executes.
    ///
    /// This is the executor the scale and property suites plug into
    /// [`CampaignSpec::stream_with_executor`]: it costs microseconds per
    /// cell, so million-cell matrices exercise the scheduling and folding
    /// machinery in test time.  Roughly one cell in seven reports as
    /// blocked (seed-derived), so both fold paths stay covered.
    pub fn synthetic_record(&self) -> CellRecord {
        let blocked = self.seed.is_multiple_of(7);
        let metrics = (!blocked).then(|| ScenarioMetrics::synthetic(self.seed));
        CellRecord {
            cell: self.clone(),
            result: if blocked {
                ScenarioResult::Blocked {
                    step: "synthetic".into(),
                }
            } else {
                ScenarioResult::Completed
            },
            metrics,
            timings: None,
            elapsed: Duration::ZERO,
        }
    }

    /// Builds the [`AttackScenario`] this cell describes, attaching the
    /// campaign-shared profile database.
    pub fn scenario(&self, profiles: ProfileDatabase, base: &AttackConfig) -> AttackScenario {
        AttackScenario::new(self.board, self.model)
            .with_input(self.input.materialize(self.model))
            .with_attack_config(AttackConfig {
                scrape_mode: self.scrape_mode,
                reconstruct: self.reconstruct.unwrap_or(base.reconstruct),
                ..base.clone()
            })
            .with_profiles(profiles)
            .with_schedule(self.schedule)
            .with_seed(self.seed)
    }
}

/// A declarative scenario matrix: the axes, the base attack configuration
/// and the campaign seed.  How it runs (workers, block size) is the
/// [`StreamConfig`] handed to [`CampaignSpec::stream`].
///
/// Axis semantics: `models`, `inputs`, `scrape_modes` and `schedules` always
/// have at least one value.  The five board-override axes (`sanitize`,
/// `isolation`, `aslr`, `allocation`, `remanence`) are optional — when
/// unset, each board keeps its own configured policy, so presets pass
/// through untouched.
///
/// Expansion order (slowest-varying first): board → model → input →
/// sanitize → isolation → aslr → allocation order → remanence → scrape mode
/// → schedule → reconstruction.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    boards: Vec<(String, BoardConfig)>,
    models: Vec<ModelKind>,
    inputs: Vec<InputKind>,
    sanitize_policies: Option<Vec<SanitizePolicy>>,
    isolation_policies: Option<Vec<IsolationPolicy>>,
    aslr_modes: Option<Vec<AslrMode>>,
    allocation_orders: Option<Vec<AllocationOrder>>,
    remanence_models: Option<Vec<RemanenceModel>>,
    scrape_modes: Vec<ScrapeMode>,
    schedules: Vec<VictimSchedule>,
    reconstruct_modes: Option<Vec<bool>>,
    attack_config: AttackConfig,
    seed: u64,
}

impl CampaignSpec {
    /// Creates a spec over one named board with every axis at its default
    /// single value (one cell).
    pub fn new(board_name: impl Into<String>, board: BoardConfig) -> Self {
        CampaignSpec::over_boards(vec![(board_name.into(), board)])
    }

    /// Creates a spec over an explicit board axis with every other axis at
    /// its default single value.
    ///
    /// Unlike [`CampaignSpec::new`], the board axis may be empty — specs
    /// generated from external matrices can legitimately collapse to zero
    /// boards.  Such a spec expands to zero cells, and
    /// [`CampaignSpec::stream`] refuses it with the typed
    /// [`AttackError::EmptyCampaign`] instead of producing a degenerate
    /// summary.
    pub fn over_boards(boards: Vec<(String, BoardConfig)>) -> Self {
        CampaignSpec {
            boards,
            models: vec![ModelKind::Resnet50Pt],
            inputs: vec![InputKind::SamplePhoto],
            sanitize_policies: None,
            isolation_policies: None,
            aslr_modes: None,
            allocation_orders: None,
            remanence_models: None,
            scrape_modes: vec![ScrapeMode::ContiguousRange],
            schedules: vec![VictimSchedule::Single],
            reconstruct_modes: None,
            attack_config: AttackConfig::default(),
            seed: 0,
        }
    }

    /// Adds another board axis entry.
    pub fn with_board(mut self, name: impl Into<String>, board: BoardConfig) -> Self {
        self.boards.push((name.into(), board));
        self
    }

    /// Sets the victim-model axis.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn with_models(mut self, models: Vec<ModelKind>) -> Self {
        assert!(!models.is_empty(), "model axis must not be empty");
        self.models = models;
        self
    }

    /// Sets the input-kind axis.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn with_inputs(mut self, inputs: Vec<InputKind>) -> Self {
        assert!(!inputs.is_empty(), "input axis must not be empty");
        self.inputs = inputs;
        self
    }

    /// Sweeps the sanitize policy over `policies` (overriding each board's
    /// own policy).
    pub fn with_sanitize_policies(mut self, policies: Vec<SanitizePolicy>) -> Self {
        assert!(!policies.is_empty(), "sanitize axis must not be empty");
        self.sanitize_policies = Some(policies);
        self
    }

    /// Sweeps the isolation policy over `policies`.
    pub fn with_isolation_policies(mut self, policies: Vec<IsolationPolicy>) -> Self {
        assert!(!policies.is_empty(), "isolation axis must not be empty");
        self.isolation_policies = Some(policies);
        self
    }

    /// Sweeps virtual-address randomization over `modes`.
    pub fn with_aslr_modes(mut self, modes: Vec<AslrMode>) -> Self {
        assert!(!modes.is_empty(), "aslr axis must not be empty");
        self.aslr_modes = Some(modes);
        self
    }

    /// Sweeps the physical allocation order over `orders`.
    pub fn with_allocation_orders(mut self, orders: Vec<AllocationOrder>) -> Self {
        assert!(!orders.is_empty(), "allocation axis must not be empty");
        self.allocation_orders = Some(orders);
        self
    }

    /// Sweeps the DRAM remanence decay model over `models` (overriding each
    /// board's own model) — the Pentimento-style analog-retention axis.
    ///
    /// Decay is seeded per cell and advanced on logical ticks only, so the
    /// swept campaign stays byte-identical across worker counts, and a
    /// [`RemanenceModel::Perfect`] cell reproduces the pre-remanence results
    /// bit-exactly.
    pub fn with_remanence_models(mut self, models: Vec<RemanenceModel>) -> Self {
        assert!(!models.is_empty(), "remanence axis must not be empty");
        self.remanence_models = Some(models);
        self
    }

    /// Sets the scrape-mode axis.
    ///
    /// # Panics
    ///
    /// Panics if `modes` is empty.
    pub fn with_scrape_modes(mut self, modes: Vec<ScrapeMode>) -> Self {
        assert!(!modes.is_empty(), "scrape axis must not be empty");
        self.scrape_modes = modes;
        self
    }

    /// Sets the victim-schedule axis.
    ///
    /// # Panics
    ///
    /// Panics if `schedules` is empty.
    pub fn with_schedules(mut self, schedules: Vec<VictimSchedule>) -> Self {
        assert!(!schedules.is_empty(), "schedule axis must not be empty");
        self.schedules = schedules;
        self
    }

    /// Sweeps the decay-tolerant reconstruction layer
    /// ([`AttackConfig::reconstruct`]) over `modes` — typically
    /// `vec![false, true]` so fleet sweeps compare raw exact-matching
    /// recovery against reconstructed recovery cell for cell.
    ///
    /// When unset (the default) the axis contributes no cells and the base
    /// attack config's setting applies, so pre-reconstruction campaigns and
    /// their seeds are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `modes` is empty.
    pub fn with_reconstruction(mut self, modes: Vec<bool>) -> Self {
        assert!(!modes.is_empty(), "reconstruction axis must not be empty");
        self.reconstruct_modes = Some(modes);
        self
    }

    /// Sets the base attack configuration (each cell overlays its scrape
    /// mode on top).
    pub fn with_attack_config(mut self, config: AttackConfig) -> Self {
        self.attack_config = config;
        self
    }

    /// Sets the campaign seed mixed into every cell's seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of cells the spec expands to.
    pub fn cell_count(&self) -> usize {
        self.boards.len()
            * self.models.len()
            * self.inputs.len()
            * self.sanitize_policies.as_ref().map_or(1, Vec::len)
            * self.isolation_policies.as_ref().map_or(1, Vec::len)
            * self.aslr_modes.as_ref().map_or(1, Vec::len)
            * self.allocation_orders.as_ref().map_or(1, Vec::len)
            * self.remanence_models.as_ref().map_or(1, Vec::len)
            * self.scrape_modes.len()
            * self.schedules.len()
            * self.reconstruct_modes.as_ref().map_or(1, Vec::len)
    }

    /// Expands the matrix into cells, in the documented deterministic order.
    ///
    /// This materializes the whole matrix at once; fleet-scale callers
    /// should prefer the lazy [`CampaignSpec::cells`] walk (the streaming
    /// engine never calls `expand`).
    pub fn expand(&self) -> Vec<CampaignCell> {
        self.cells().collect()
    }

    /// Lazily walks the axis cross-product in the documented deterministic
    /// order without allocating the matrix: each `next()` call materializes
    /// exactly one seeded [`CampaignCell`].
    ///
    /// `spec.cells().collect::<Vec<_>>()` equals `spec.expand()` cell for
    /// cell; the iterator is exact-size and double-ended.
    pub fn cells(&self) -> Cells<'_> {
        Cells {
            spec: self,
            next: 0,
            end: self.cell_count(),
        }
    }

    /// Materializes the single cell at `index` of the deterministic
    /// expansion order, in O(axes) time (a mixed-radix decode of `index` —
    /// no part of the matrix is allocated).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.cell_count()`.
    pub fn cell_at(&self, index: usize) -> CampaignCell {
        assert!(
            index < self.cell_count(),
            "cell index {index} out of range for a {}-cell campaign",
            self.cell_count()
        );
        // Decode the fastest-varying axis first — the reverse of the
        // documented slowest-first expansion order.
        let mut rem = index;
        let reconstruct = optional_pick(&self.reconstruct_modes, &mut rem);
        let schedule = self.schedules[axis_index(self.schedules.len(), &mut rem)];
        let scrape_mode = self.scrape_modes[axis_index(self.scrape_modes.len(), &mut rem)];
        let remanence = optional_pick(&self.remanence_models, &mut rem);
        let order = optional_pick(&self.allocation_orders, &mut rem);
        let aslr = optional_pick(&self.aslr_modes, &mut rem);
        let isolation = optional_pick(&self.isolation_policies, &mut rem);
        let sanitize = optional_pick(&self.sanitize_policies, &mut rem);
        let input = self.inputs[axis_index(self.inputs.len(), &mut rem)];
        let model = self.models[axis_index(self.models.len(), &mut rem)];
        let board_index = rem;
        let (board_name, base_board) = &self.boards[board_index];
        let mut board = *base_board;
        if let Some(p) = sanitize {
            board = board.with_sanitize_policy(p);
        }
        if let Some(p) = isolation {
            board = board.with_isolation(p);
        }
        if let Some(m) = aslr {
            board = board.with_aslr(m);
        }
        if let Some(o) = order {
            board = board.with_allocation_order(o);
        }
        if let Some(r) = remanence {
            board = board.with_remanence(r);
        }
        CampaignCell {
            index,
            board_index,
            board_name: board_name.clone(),
            board,
            model,
            input,
            sanitize: board.sanitize_policy(),
            isolation: board.isolation(),
            aslr: board.aslr(),
            allocation_order: board.allocation_order(),
            remanence: board.remanence(),
            scrape_mode,
            schedule,
            reconstruct,
            seed: mix_seed(self.seed, index as u64),
        }
    }

    /// Runs the campaign's real scenario pipeline under `config`.
    ///
    /// Every [`CellRecord`] goes to `visit` in strict cell-index order and
    /// is not retained; `progress` is called after each folded cell group,
    /// in group order (the hook behind `--stream` NDJSON output).  Peak
    /// memory is bounded by the in-flight window (O(workers) cells), never
    /// by the matrix size, and the summary's deterministic surface
    /// ([`CampaignSummary::deterministic_json`]) is byte-identical
    /// regardless of worker count or completion order.
    ///
    /// # Errors
    ///
    /// [`AttackError::EmptyCampaign`] for a zero-cell spec (e.g. an empty
    /// board axis from [`CampaignSpec::over_boards`]), otherwise the first
    /// (lowest cell index) hard error or `visit` error.  Isolation denials
    /// are data ([`ScenarioResult::Blocked`]), not errors.
    pub fn stream<V, P>(
        &self,
        config: StreamConfig,
        visit: V,
        progress: P,
    ) -> Result<CampaignSummary, AttackError>
    where
        V: FnMut(CellRecord) -> Result<(), AttackError>,
        P: FnMut(&GroupProgress),
    {
        // One offline profiling pass per board axis entry, shared by every
        // cell on that board.  Profiling replays the board preset on the
        // attacker's own (permissive, pre-defense) hardware.
        let profiles: Vec<ProfileDatabase> = self
            .boards
            .iter()
            .map(|(_, board)| {
                Profiler::new(board.with_isolation(IsolationPolicy::Permissive)).profile_all()
            })
            .collect();
        let executor =
            |cell: &CampaignCell| run_cell(cell, &profiles[cell.board_index], &self.attack_config);
        stream::run(self, &config, &executor, visit, progress)
    }

    /// Streams the campaign through a caller-supplied cell executor instead
    /// of the real scenario pipeline.
    ///
    /// This is the engine's test seam: the determinism, property and scale
    /// suites drive million-cell matrices through synthetic executors
    /// ([`CampaignCell::synthetic_record`]) that cost microseconds per cell,
    /// exercising the scheduling/folding machinery without the scenario
    /// cost.
    pub fn stream_with_executor<E, V, P>(
        &self,
        config: StreamConfig,
        executor: E,
        visit: V,
        progress: P,
    ) -> Result<CampaignSummary, AttackError>
    where
        E: Fn(&CampaignCell) -> Result<CellRecord, AttackError> + Sync,
        V: FnMut(CellRecord) -> Result<(), AttackError>,
        P: FnMut(&GroupProgress),
    {
        stream::run(self, &config, &executor, visit, progress)
    }
}

/// Decodes the next mixed-radix digit of a cell index: the in-axis position
/// for an axis of `len` values, consuming it from `rem`.
fn axis_index(len: usize, rem: &mut usize) -> usize {
    let i = *rem % len;
    *rem /= len;
    i
}

/// Decodes an optional override axis digit: absent → `None` (inherit the
/// board's own setting, zero index digits), present → the selected value.
fn optional_pick<T: Copy>(axis: &Option<Vec<T>>, rem: &mut usize) -> Option<T> {
    axis.as_ref()
        .map(|values| values[axis_index(values.len(), rem)])
}

/// Lazy iterator over a spec's cells in deterministic expansion order — see
/// [`CampaignSpec::cells`].
#[derive(Debug, Clone)]
pub struct Cells<'a> {
    spec: &'a CampaignSpec,
    next: usize,
    end: usize,
}

impl Iterator for Cells<'_> {
    type Item = CampaignCell;

    fn next(&mut self) -> Option<CampaignCell> {
        if self.next >= self.end {
            return None;
        }
        let cell = self.spec.cell_at(self.next);
        self.next += 1;
        Some(cell)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.end - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Cells<'_> {}

impl DoubleEndedIterator for Cells<'_> {
    fn next_back(&mut self) -> Option<CampaignCell> {
        if self.next >= self.end {
            return None;
        }
        self.end -= 1;
        Some(self.spec.cell_at(self.end))
    }
}

/// splitmix64 mix of the campaign seed and the cell index.
fn mix_seed(seed: u64, index: u64) -> u64 {
    crate::scenario::splitmix64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn run_cell(
    cell: &CampaignCell,
    profiles: &ProfileDatabase,
    base_config: &AttackConfig,
) -> Result<CellRecord, AttackError> {
    let started = Instant::now();
    let scenario = cell.scenario(profiles.clone(), base_config);
    let (result, outcome) = scenario.execute_allow_blocked()?;
    Ok(CellRecord {
        cell: cell.clone(),
        metrics: outcome.as_ref().map(|o| o.metrics()),
        timings: outcome.map(|o| o.attack().timings),
        result,
        elapsed: started.elapsed(),
    })
}

/// The result of one campaign cell.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// The cell that ran.
    pub cell: CampaignCell,
    /// Whether the attack completed or was blocked (and where).
    pub result: ScenarioResult,
    /// The deterministic scenario metrics (`None` when blocked).
    pub metrics: Option<ScenarioMetrics>,
    /// Per-step attack timings (`None` when blocked); wall-clock, so not
    /// part of the deterministic comparison surface.
    pub timings: Option<StepTimings>,
    /// Wall-clock duration of the whole cell (boot to scored outcome).
    pub elapsed: Duration,
}

impl CellRecord {
    /// `true` when the attack ran to completion.
    pub fn completed(&self) -> bool {
        matches!(self.result, ScenarioResult::Completed)
    }

    /// `true` when the attack correctly identified the victim model.
    pub fn identified(&self) -> bool {
        self.metrics.as_ref().is_some_and(|m| m.model_identified)
    }

    /// Pixel recovery rate (0.0 for blocked cells).
    pub fn pixel_recovery(&self) -> f64 {
        self.metrics.as_ref().map_or(0.0, |m| m.pixel_recovery)
    }

    /// The reproducible part of the record — what must be identical across
    /// worker counts and repeated same-seed runs.
    pub fn deterministic_view(&self) -> (&CampaignCell, &ScenarioResult, Option<&ScenarioMetrics>) {
        (&self.cell, &self.result, self.metrics.as_ref())
    }
}

/// Success/recovery/blocked aggregates over one group of cells.
///
/// Each mean is computed over its *relevant* denominator: blocked cells
/// (which never produced metrics) do not drag `mean_pixel_recovery`
/// toward zero, and cells without a revival schedule do not dilute
/// `mean_revival_inheritance`.  This is the one definition of mean
/// recovery: campaign totals ([`CampaignSummary::totals`]) use it too.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GroupStats {
    /// Cells in the group.
    pub cells: usize,
    /// Cells whose attack ran to completion.
    pub completed: usize,
    /// Cells blocked by the isolation policy.
    pub blocked: usize,
    /// Cells whose attack identified the correct model.
    pub identified: usize,
    /// Mean pixel recovery across the group's **completed** cells (0.0 when
    /// every cell was blocked).
    pub mean_pixel_recovery: f64,
    /// Total residue frames left across the group.
    pub residue_frames: usize,
    /// Total victim residue frames lost (overwritten, re-allocated or
    /// scrubbed) before the scrape could read them.
    pub residue_frames_lost: usize,
    /// Total residue frames inherited by revived successor processes.
    pub revival_inherited_frames: usize,
    /// Completed cells that ran a [`VictimSchedule::Revival`] schedule — the
    /// denominator of `mean_revival_inheritance`.
    pub revival_cells: usize,
    /// Mean revival inheritance rate across the group's **revival** cells
    /// (0.0 when the group has none).
    pub mean_revival_inheritance: f64,
    /// Total residue bits the remanence decay view flipped away across the
    /// group (zero under the perfect model).
    pub residue_bits_flipped: u64,
    /// Mean remanence decayed-recovery rate
    /// ([`crate::scenario::ResidueLifetime::decayed_recovery_rate`]) across
    /// the group's **completed** cells (1.0 under the perfect model).
    pub mean_decayed_recovery: f64,
    /// Sum of squared deviations (Welford/Chan M2) of pixel recovery across
    /// the group's completed cells — `pixel_recovery_variance()` reads it.
    pub pixel_recovery_m2: f64,
}

impl GroupStats {
    /// Folds one cell record into the running aggregates.
    ///
    /// Means are maintained incrementally (Welford's algorithm), so the
    /// struct is always in its final form — there is no separate
    /// finalization pass, and a group can be read mid-stream.
    pub fn absorb(&mut self, record: &CellRecord) {
        self.cells += 1;
        if record.completed() {
            self.completed += 1;
            let recovery = record.pixel_recovery();
            let delta = recovery - self.mean_pixel_recovery;
            self.mean_pixel_recovery += delta / self.completed as f64;
            self.pixel_recovery_m2 += delta * (recovery - self.mean_pixel_recovery);
        } else {
            self.blocked += 1;
        }
        if record.identified() {
            self.identified += 1;
        }
        self.residue_frames += record.metrics.as_ref().map_or(0, |m| m.residue_frames);
        if let Some(metrics) = &record.metrics {
            let lifetime = metrics.residue_lifetime;
            self.residue_frames_lost += lifetime.frames_lost_before_scrape;
            self.revival_inherited_frames += lifetime.revival_inherited_frames;
            self.residue_bits_flipped += lifetime.residue_bits_flipped;
            // Metrics exist exactly for completed cells, so `completed` is
            // this mean's sample count.
            let delta = lifetime.decayed_recovery_rate() - self.mean_decayed_recovery;
            self.mean_decayed_recovery += delta / self.completed as f64;
            if matches!(record.cell.schedule, VictimSchedule::Revival { .. }) {
                self.revival_cells += 1;
                let delta = lifetime.inheritance_rate() - self.mean_revival_inheritance;
                self.mean_revival_inheritance += delta / self.revival_cells as f64;
            }
        }
    }

    /// Merges another group into this one with count-weighted mean/variance
    /// combination (Chan et al.'s parallel form), so partial aggregates can
    /// be folded in any tree shape without magnitude-dependent drift — the
    /// naive `(mean_a + mean_b) / 2` midpoint is wrong whenever the sides
    /// hold different cell counts.
    pub fn merge(&mut self, other: &GroupStats) {
        if other.completed > 0 {
            let n_self = self.completed as f64;
            let n_other = other.completed as f64;
            let n = n_self + n_other;
            let delta = other.mean_pixel_recovery - self.mean_pixel_recovery;
            self.mean_pixel_recovery += delta * n_other / n;
            self.pixel_recovery_m2 +=
                other.pixel_recovery_m2 + delta * delta * n_self * n_other / n;
            let delta = other.mean_decayed_recovery - self.mean_decayed_recovery;
            self.mean_decayed_recovery += delta * n_other / n;
        }
        if other.revival_cells > 0 {
            let n_self = self.revival_cells as f64;
            let n_other = other.revival_cells as f64;
            let delta = other.mean_revival_inheritance - self.mean_revival_inheritance;
            self.mean_revival_inheritance += delta * n_other / (n_self + n_other);
        }
        self.cells += other.cells;
        self.completed += other.completed;
        self.blocked += other.blocked;
        self.identified += other.identified;
        self.revival_cells += other.revival_cells;
        self.residue_frames += other.residue_frames;
        self.residue_frames_lost += other.residue_frames_lost;
        self.revival_inherited_frames += other.revival_inherited_frames;
        self.residue_bits_flipped += other.residue_bits_flipped;
    }

    /// Population variance of pixel recovery across the group's completed
    /// cells (0.0 with fewer than two samples).
    pub fn pixel_recovery_variance(&self) -> f64 {
        if self.completed < 2 {
            0.0
        } else {
            self.pixel_recovery_m2 / self.completed as f64
        }
    }

    /// Fraction of the group's cells that identified the victim model.
    pub fn identification_rate(&self) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            self.identified as f64 / self.cells as f64
        }
    }

    /// Fraction of the group's cells blocked by isolation.
    pub fn blocked_rate(&self) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            self.blocked as f64 / self.cells as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec::new("tiny", BoardConfig::tiny_for_tests())
    }

    /// Streams `spec` on `workers` pool threads, collecting every record in
    /// cell-index order.
    fn run_records(spec: &CampaignSpec, workers: usize) -> (CampaignSummary, Vec<CellRecord>) {
        let mut records = Vec::new();
        let summary = spec
            .stream(
                StreamConfig::new().with_workers(workers),
                |record| {
                    records.push(record);
                    Ok(())
                },
                |_| {},
            )
            .unwrap();
        (summary, records)
    }

    /// Folds `records` into one [`GroupStats`] per `key`, in key order.
    fn group_by<K: Ord>(
        records: &[CellRecord],
        key: impl Fn(&CellRecord) -> K,
    ) -> BTreeMap<K, GroupStats> {
        let mut groups: BTreeMap<K, GroupStats> = BTreeMap::new();
        for record in records {
            groups.entry(key(record)).or_default().absorb(record);
        }
        groups
    }

    #[test]
    fn default_spec_is_one_cell() {
        let spec = tiny_spec();
        assert_eq!(spec.cell_count(), 1);
        let cells = spec.expand();
        assert_eq!(cells.len(), 1);
        let cell = &cells[0];
        assert_eq!(cell.index, 0);
        assert_eq!(cell.board_name, "tiny");
        assert_eq!(cell.model, ModelKind::Resnet50Pt);
        assert_eq!(cell.input, InputKind::SamplePhoto);
        // Unset override axes inherit the board's own policies.
        assert_eq!(cell.sanitize, SanitizePolicy::None);
        assert_eq!(cell.isolation, IsolationPolicy::Permissive);
        assert_eq!(cell.remanence, zynq_dram::RemanenceModel::Perfect);
        assert_eq!(cell.schedule, VictimSchedule::Single);
    }

    #[test]
    fn expansion_order_and_seeds_are_deterministic() {
        let spec = tiny_spec()
            .with_models(vec![ModelKind::SqueezeNet, ModelKind::MobileNetV2])
            .with_inputs(vec![InputKind::SamplePhoto, InputKind::Corrupted])
            .with_scrape_modes(vec![ScrapeMode::ContiguousRange, ScrapeMode::PerPage])
            .with_seed(99);
        assert_eq!(spec.cell_count(), 8);
        let a = spec.expand();
        let b = spec.expand();
        assert_eq!(a, b);
        // Model varies slowest, scrape mode fastest.
        assert_eq!(a[0].model, ModelKind::SqueezeNet);
        assert_eq!(a[3].model, ModelKind::SqueezeNet);
        assert_eq!(a[4].model, ModelKind::MobileNetV2);
        assert_eq!(a[0].scrape_mode, ScrapeMode::ContiguousRange);
        assert_eq!(a[1].scrape_mode, ScrapeMode::PerPage);
        assert_eq!(a[1].input, InputKind::SamplePhoto);
        assert_eq!(a[2].input, InputKind::Corrupted);
        // Seeds are index-mixed and distinct.
        assert!(a.windows(2).all(|w| w[0].seed != w[1].seed));
        // A different campaign seed yields different cell seeds.
        let other = tiny_spec().with_seed(100).expand();
        assert_ne!(other[0].seed, a[0].seed);
        // Labels mention the axes.
        assert!(a[0].label().contains("tiny/"));
        assert!(a[0].label().contains("squeezenet"));
    }

    #[test]
    fn board_override_axes_resolve_into_cells() {
        let spec = tiny_spec()
            .with_sanitize_policies(vec![SanitizePolicy::None, SanitizePolicy::ZeroOnFree])
            .with_isolation_policies(vec![IsolationPolicy::Permissive, IsolationPolicy::Confined]);
        let cells = spec.expand();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].sanitize, SanitizePolicy::None);
        assert_eq!(cells[0].isolation, IsolationPolicy::Permissive);
        assert_eq!(cells[1].isolation, IsolationPolicy::Confined);
        assert_eq!(cells[2].sanitize, SanitizePolicy::ZeroOnFree);
        for cell in &cells {
            assert_eq!(cell.board.sanitize_policy(), cell.sanitize);
            assert_eq!(cell.board.isolation(), cell.isolation);
        }
    }

    #[test]
    fn campaign_runs_and_aggregates() {
        let spec = tiny_spec()
            .with_models(vec![ModelKind::SqueezeNet])
            .with_inputs(vec![InputKind::Corrupted])
            .with_sanitize_policies(vec![SanitizePolicy::None, SanitizePolicy::SelectiveScrub])
            .with_isolation_policies(vec![IsolationPolicy::Permissive, IsolationPolicy::Confined]);
        let (summary, records) = run_records(&spec, 2);
        assert_eq!(summary.cells_total, 4);
        assert_eq!(records.len(), 4);
        assert_eq!(summary.workers, 2);
        assert_eq!(summary.totals.completed, 2);
        assert_eq!(summary.totals.blocked, 2);
        // Only the unsanitized + permissive cell leaks.
        assert_eq!(summary.totals.identified, 1);
        assert!(summary.totals.mean_pixel_recovery > 0.0);

        let by_isolation = &summary.axes.by_isolation;
        assert_eq!(by_isolation.len(), 2);
        let confined = &by_isolation["confined"];
        assert_eq!(confined.cells, 2);
        assert_eq!(confined.blocked, 2);
        assert_eq!(confined.blocked_rate(), 1.0);
        assert_eq!(confined.identification_rate(), 0.0);
        let permissive = &by_isolation["permissive"];
        assert_eq!(permissive.completed, 2);
        assert_eq!(permissive.identified, 1);

        let blocked = records
            .iter()
            .filter(|r| matches!(r.result, ScenarioResult::Blocked { .. }))
            .count();
        assert_eq!(blocked, 2);
    }

    #[test]
    fn residue_lifetime_schedules_compose_with_the_sanitize_axis() {
        let spec = tiny_spec()
            .with_models(vec![ModelKind::SqueezeNet])
            .with_inputs(vec![InputKind::Corrupted])
            .with_sanitize_policies(vec![SanitizePolicy::None, SanitizePolicy::ZeroOnFree])
            .with_schedules(vec![
                VictimSchedule::Revival {
                    successors: 1,
                    reuse_pid: true,
                },
                VictimSchedule::LiveTraffic {
                    tenants: 1,
                    churn_rate: 2,
                },
            ]);
        let (summary, records) = run_records(&spec, 2);
        assert_eq!(records.len(), 4);

        // Expansion order: sanitize varies slower than schedule.
        let lifetime = |i: usize| records[i].metrics.as_ref().unwrap().residue_lifetime;
        // Unsanitized revival: the successor inherited victim residue.
        assert!(lifetime(0).revival_inherited_frames > 0);
        // Unsanitized live traffic: churn ran during the scrape.
        assert!(lifetime(1).churn_events > 0);
        // Zero-on-free: revival inherits nothing — the defense closes the
        // resurrection window.
        assert_eq!(lifetime(2).revival_inherited_frames, 0);
        assert_eq!(lifetime(2).inheritance_rate(), 0.0);

        // Aggregation surfaces the same story per schedule group.
        let by_schedule = &summary.axes.by_schedule;
        let revival = &by_schedule["revival(1,reuse-pid)"];
        assert!(revival.revival_inherited_frames > 0);
        assert!(revival.mean_revival_inheritance > 0.0);
        let live = &by_schedule["live-traffic(1,churn=2)"];
        assert_eq!(live.revival_inherited_frames, 0);
    }

    #[test]
    fn multi_snapshot_live_traffic_is_deterministic_across_worker_counts() {
        // Regression guard for the MultiSnapshot-under-LiveTraffic fix: the
        // snapshot ticks are pinned to the scrape start, so the fused dump —
        // and every downstream metric — must be byte-identical whether the
        // campaign runs on one worker or four.
        let spec = tiny_spec()
            .with_models(vec![ModelKind::SqueezeNet])
            .with_inputs(vec![InputKind::Corrupted])
            .with_scrape_modes(vec![
                ScrapeMode::MultiSnapshot { snapshots: 2 },
                ScrapeMode::MultiSnapshot { snapshots: 3 },
            ])
            .with_sanitize_policies(vec![SanitizePolicy::None, SanitizePolicy::ZeroOnFree])
            .with_schedules(vec![VictimSchedule::LiveTraffic {
                tenants: 2,
                churn_rate: 2,
            }])
            .with_seed(41);
        let (_, single) = run_records(&spec, 1);
        let (fanned_summary, fanned) = run_records(&spec, 4);
        assert_eq!(single.len(), fanned.len());
        assert_eq!(fanned_summary.workers, 4);
        for (a, b) in single.iter().zip(&fanned) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.result, b.result);
            assert_eq!(a.metrics, b.metrics);
        }
        // The cells actually exercised the fixed path: live churn fired and
        // the scrape completed with a real multi-snapshot fusion.
        let metrics = single[0].metrics.as_ref().unwrap();
        assert!(metrics.residue_lifetime.churn_events > 0);
        assert!(metrics.bytes_scraped > 0);
    }

    #[test]
    fn group_stats_empty_rates() {
        let stats = GroupStats::default();
        assert_eq!(stats.identification_rate(), 0.0);
        assert_eq!(stats.blocked_rate(), 0.0);
    }

    /// A synthetic record for the aggregation tests: `recovery` is `None`
    /// for a blocked cell, `Some(rate)` for a completed one.
    fn synthetic_record(
        index: usize,
        schedule: VictimSchedule,
        recovery: Option<f64>,
        inheritance: Option<(usize, usize)>,
    ) -> CellRecord {
        use crate::scenario::ResidueLifetime;
        let spec = tiny_spec();
        let mut cell = spec.expand().remove(0);
        cell.index = index;
        cell.schedule = schedule;
        let metrics = recovery.map(|pixel_recovery| {
            let (revived, inherited) = inheritance.unwrap_or((0, 0));
            ScenarioMetrics {
                identified_model: None,
                model_identified: false,
                identification_confidence: 0.0,
                pixel_recovery,
                bytes_scraped: 0,
                dump_coverage: 0.0,
                residue_frames: 0,
                denied_operations: 0,
                scrub_cost_cycles: 0.0,
                collateral_bytes: 0,
                active_tenant_intact: None,
                residue_bits_flipped: 0,
                residue_lifetime: ResidueLifetime {
                    revived_heap_frames: revived,
                    revival_inherited_frames: inherited,
                    ..ResidueLifetime::default()
                },
            }
        });
        CellRecord {
            cell,
            result: match recovery {
                Some(_) => crate::scenario::ScenarioResult::Completed,
                None => crate::scenario::ScenarioResult::Blocked {
                    step: "devmem".into(),
                },
            },
            metrics,
            timings: None,
            elapsed: Duration::ZERO,
        }
    }

    #[test]
    fn group_stats_pixel_recovery_mean_ignores_blocked_cells() {
        // Satellite bugfix pin: two completed cells at 1.0 and 0.5 recovery
        // plus two blocked cells must average 0.75, not 0.375 — the blocked
        // cells contribute no recovery sample at all.
        let mut stats = GroupStats::default();
        stats.absorb(&synthetic_record(
            0,
            VictimSchedule::Single,
            Some(1.0),
            None,
        ));
        stats.absorb(&synthetic_record(
            1,
            VictimSchedule::Single,
            Some(0.5),
            None,
        ));
        stats.absorb(&synthetic_record(2, VictimSchedule::Single, None, None));
        stats.absorb(&synthetic_record(3, VictimSchedule::Single, None, None));
        assert_eq!(stats.cells, 4);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.blocked, 2);
        assert_eq!(stats.mean_pixel_recovery, 0.75);
        // Samples 1.0 and 0.5 → population variance 0.0625.
        assert_eq!(stats.pixel_recovery_variance(), 0.0625);

        // A fully blocked group has no recovery mean to report.
        let mut blocked = GroupStats::default();
        blocked.absorb(&synthetic_record(0, VictimSchedule::Single, None, None));
        assert_eq!(blocked.mean_pixel_recovery, 0.0);
        assert_eq!(blocked.pixel_recovery_variance(), 0.0);
    }

    #[test]
    fn group_stats_merge_is_count_weighted_even_across_magnitude_spreads() {
        // Satellite regression pin: merging partial aggregates must weight
        // by sample count (Chan et al.), not average the means.  One side
        // holds 1000 near-zero samples, the other a single huge outlier —
        // the midpoint formula would report ~0.5 * 1e6.
        let completed = |index: usize, recovery: f64| {
            synthetic_record(index, VictimSchedule::Single, Some(recovery), None)
        };
        let mut small = GroupStats::default();
        for index in 0..1000 {
            small.absorb(&completed(index, 1e-6));
        }
        let mut outlier = GroupStats::default();
        outlier.absorb(&completed(1000, 1e6));

        let mut serial = GroupStats::default();
        for index in 0..1000 {
            serial.absorb(&completed(index, 1e-6));
        }
        serial.absorb(&completed(1000, 1e6));

        let mut merged = small;
        merged.merge(&outlier);
        assert_eq!(merged.cells, serial.cells);
        assert_eq!(merged.completed, serial.completed);
        let expected_mean = (1000.0 * 1e-6 + 1e6) / 1001.0;
        assert!((merged.mean_pixel_recovery - expected_mean).abs() / expected_mean < 1e-12);
        assert!(
            (merged.mean_pixel_recovery - serial.mean_pixel_recovery).abs() / expected_mean < 1e-12
        );
        assert!(
            (merged.pixel_recovery_variance() - serial.pixel_recovery_variance()).abs()
                / serial.pixel_recovery_variance()
                < 1e-9
        );

        // Merge direction must not matter beyond float associativity: the
        // outlier-first fold lands on the same count-weighted mean.
        let mut reversed = outlier;
        reversed.merge(&small);
        assert!(
            (reversed.mean_pixel_recovery - merged.mean_pixel_recovery).abs() / expected_mean
                < 1e-12
        );

        // Merging an empty group is the identity.
        let before = merged;
        merged.merge(&GroupStats::default());
        assert_eq!(merged, before);
        let mut empty = GroupStats::default();
        empty.merge(&before);
        assert_eq!(empty.mean_pixel_recovery, before.mean_pixel_recovery);
        assert_eq!(empty.cells, before.cells);
    }

    #[test]
    fn group_stats_revival_mean_uses_only_revival_cells() {
        // Satellite bugfix pin: one revival cell at 50% inheritance mixed
        // with three non-revival cells must report 0.5, not 0.125.
        let revival = VictimSchedule::Revival {
            successors: 1,
            reuse_pid: true,
        };
        let mut stats = GroupStats::default();
        stats.absorb(&synthetic_record(0, revival, Some(0.0), Some((10, 5))));
        for index in 1..4 {
            stats.absorb(&synthetic_record(
                index,
                VictimSchedule::Single,
                Some(1.0),
                None,
            ));
        }
        assert_eq!(stats.revival_cells, 1);
        assert_eq!(stats.mean_revival_inheritance, 0.5);
        assert_eq!(stats.revival_inherited_frames, 5);

        // No revival cells at all: the mean is 0, not NaN.
        let mut none = GroupStats::default();
        none.absorb(&synthetic_record(
            0,
            VictimSchedule::Single,
            Some(1.0),
            None,
        ));
        assert_eq!(none.revival_cells, 0);
        assert_eq!(none.mean_revival_inheritance, 0.0);
    }

    #[test]
    fn empty_campaign_is_a_typed_error_not_a_degenerate_report() {
        let spec = CampaignSpec::over_boards(Vec::new());
        assert_eq!(spec.cell_count(), 0);
        assert!(spec.expand().is_empty());
        for config in [StreamConfig::new(), StreamConfig::new().with_workers(4)] {
            assert!(matches!(
                spec.stream(config, |_| Ok(()), |_| {}),
                Err(AttackError::EmptyCampaign)
            ));
        }
        // A non-empty explicit board axis still runs normally.
        let spec =
            CampaignSpec::over_boards(vec![("tiny".to_string(), BoardConfig::tiny_for_tests())]);
        let (summary, records) = run_records(&spec, 2);
        assert_eq!(summary.cells_total, 1);
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn remanence_axis_expands_decays_and_keeps_perfect_cells_identical() {
        use zynq_dram::RemanenceModel;
        let swept = tiny_spec()
            .with_models(vec![ModelKind::SqueezeNet])
            .with_inputs(vec![InputKind::Corrupted])
            .with_remanence_models(vec![
                RemanenceModel::Perfect,
                RemanenceModel::Exponential { half_life_ticks: 1 },
            ])
            .with_seed(3);
        assert_eq!(swept.cell_count(), 2);
        let cells = swept.expand();
        assert_eq!(cells[0].remanence, RemanenceModel::Perfect);
        assert_eq!(
            cells[1].remanence,
            RemanenceModel::Exponential { half_life_ticks: 1 }
        );
        // Labels mention the axis only when it deviates from the default.
        assert!(!cells[0].label().contains("perfect"));
        assert!(cells[1].label().contains("exponential(hl=1)"));

        let (_, records) = run_records(&swept, 2);
        let perfect = records[0].metrics.as_ref().unwrap();
        let decayed = records[1].metrics.as_ref().unwrap();
        assert_eq!(perfect.residue_bits_flipped, 0);
        assert!(perfect.pixel_recovery > 0.99);
        assert!(decayed.residue_bits_flipped > 0);
        assert!(decayed.pixel_recovery < perfect.pixel_recovery);

        // The perfect cell of the swept campaign is bit-identical to the
        // same cell from a spec that never mentions remanence... except for
        // the cell seed, which is index-mixed — so compare against a
        // baseline whose perfect cell sits at the same index.
        let (_, baseline) = run_records(
            &tiny_spec()
                .with_models(vec![ModelKind::SqueezeNet])
                .with_inputs(vec![InputKind::Corrupted])
                .with_seed(3),
            2,
        );
        assert_eq!(
            baseline[0].metrics.as_ref().unwrap(),
            perfect,
            "perfect remanence must reproduce the pre-remanence results"
        );

        // Aggregation carries the fidelity totals.
        let groups = group_by(&records, |r| r.cell.remanence.to_string());
        assert_eq!(groups.len(), 2);
        assert_eq!(groups["perfect"].residue_bits_flipped, 0);
        assert_eq!(groups["perfect"].mean_decayed_recovery, 1.0);
        assert!(groups["exponential(hl=1)"].residue_bits_flipped > 0);
        assert!(groups["exponential(hl=1)"].mean_decayed_recovery < 1.0);
    }

    #[test]
    fn reconstruction_axis_doubles_cells_and_lifts_decayed_recovery() {
        use zynq_dram::RemanenceModel;
        let swept = tiny_spec()
            .with_models(vec![ModelKind::SqueezeNet])
            .with_inputs(vec![InputKind::Corrupted])
            .with_remanence_models(vec![RemanenceModel::Exponential { half_life_ticks: 1 }])
            .with_reconstruction(vec![false, true])
            .with_seed(11);
        assert_eq!(swept.cell_count(), 2);
        let cells = swept.expand();
        assert_eq!(cells[0].reconstruct, Some(false));
        assert_eq!(cells[1].reconstruct, Some(true));
        assert!(cells[0].label().ends_with("/exact"));
        assert!(cells[1].label().ends_with("/reconstruct"));
        // Specs that never mention the axis keep their cells untouched.
        let unswept = tiny_spec().expand();
        assert_eq!(unswept[0].reconstruct, None);
        assert!(!unswept[0].label().contains("reconstruct"));

        let (_, records) = run_records(&swept, 2);
        let exact = records[0].metrics.as_ref().unwrap();
        let repaired = records[1].metrics.as_ref().unwrap();
        // At a one-tick half-life the exact matcher loses the signature;
        // fuzzy identification recovers the model and neighbor repair lifts
        // pixel recovery above the raw decayed read.
        assert!(!exact.model_identified);
        assert!(repaired.model_identified);
        assert!(repaired.pixel_recovery > exact.pixel_recovery);

        // Aggregation splits cleanly along the new axis.
        let groups = group_by(&records, |r| {
            r.cell
                .reconstruct
                .map_or_else(|| "default".into(), |on| on.to_string())
        });
        assert_eq!(groups.len(), 2);
        assert!(groups["true"].mean_pixel_recovery > groups["false"].mean_pixel_recovery);
    }

    #[test]
    fn input_kind_materializes_and_displays() {
        let img = InputKind::Corrupted.materialize(ModelKind::SqueezeNet);
        assert!(img.as_bytes().iter().all(|&b| b == 0xFF));
        assert_eq!(InputKind::SamplePhoto.to_string(), "sample-photo");
        assert_eq!(InputKind::Corrupted.to_string(), "corrupted");
        assert_eq!(InputKind::Sentinel.to_string(), "sentinel");
        assert_eq!(InputKind::default(), InputKind::SamplePhoto);
    }
}
