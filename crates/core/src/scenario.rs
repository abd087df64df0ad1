//! End-to-end attack scenarios: victim + attacker on one board.
//!
//! [`AttackScenario`] packages everything the examples, integration tests and
//! benchmarks need, and is the unit of work the [`crate::campaign`] engine
//! schedules.  A scenario runs in three separable stages:
//!
//! 1. **Board boot** — [`AttackScenario::boot`] resolves the profile
//!    database, builds the attack pipeline, boots the kernel and plays the
//!    scenario's [`VictimSchedule`] prologue (predecessor traffic, co-resident
//!    tenants).
//! 2. **Victim lifecycle** — [`BootedScenario::launch_victim`] starts the
//!    victim model on the already-booted board.
//! 3. **Attacker run** — [`BootedScenario::run_attack`] observes the victim,
//!    waits for termination, scrapes, analyses and scores the result against
//!    ground truth.
//!
//! [`AttackScenario::execute`] drives all three stages back to back, so
//! single-shot callers keep their one-line API.

// Lint audit: address arithmetic here is bounds-checked against the
// DRAM window before any narrowing cast or direct index; offsets are
// derived from validated window-relative coordinates.
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use petalinux_sim::{BoardConfig, Kernel, Pid, UserId};
use vitis_ai_sim::runner::heap_image;
use vitis_ai_sim::{CompletedRun, DpuRunner, Image, LaunchedRun, ModelKind, RunnerError};
use xsdb::DebugSession;
use zynq_dram::{FrameNumber, PhysAddr, ScrubReport, PAGE_SIZE};

use crate::attack::{AttackConfig, AttackPipeline, Observation, ScrapeMode};
use crate::dump::MemoryDump;
use crate::error::AttackError;
use crate::metrics::AttackOutcome;
use crate::profile::{ProfileDatabase, Profiler};

fn runner_error(e: RunnerError) -> AttackError {
    match e {
        RunnerError::Kernel(k) => AttackError::Channel(k),
    }
}

/// How victim traffic is scheduled on the booted board before, around and
/// *after* the attacked process.
///
/// This is a first-class campaign axis: the paper's single-victim procedure
/// is [`VictimSchedule::Single`], fleet-style sequential tenant churn is
/// [`VictimSchedule::SequentialTraffic`], the multi-tenant collateral
/// experiment (TAB-F) is [`VictimSchedule::MultiTenant`], Resurrection-style
/// pid/frame reuse between termination and scrape is
/// [`VictimSchedule::Revival`], and live memory pressure *during* the scrape
/// is [`VictimSchedule::LiveTraffic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[derive(Default)]
pub enum VictimSchedule {
    /// One victim process on an otherwise idle board (the paper's setup).
    #[default]
    Single,
    /// `predecessors` other model processes run to completion on the board
    /// before the victim launches, churning the frame allocator the way a
    /// busy multi-user board would.  Which models run is derived
    /// deterministically from the scenario seed.
    SequentialTraffic {
        /// Number of predecessor processes run (and terminated) before the
        /// victim starts.
        predecessors: usize,
    },
    /// A second, still-running tenant shares the board while the victim is
    /// attacked, with the allocator deliberately fragmented by a warm-up
    /// process so the victim's frames straddle the active tenant's (the
    /// situation in which the paper argues contiguous sanitization schemes
    /// clobber live guest data).
    MultiTenant {
        /// The model the co-resident (surviving) tenant keeps running.
        active_model: ModelKind,
        /// Heap pages claimed (and later released) by the fragmentation
        /// warm-up process.
        warmup_pages: u64,
    },
    /// Resurrection-style revival: after the victim terminates — but before
    /// the attacker scrapes — `successors` new processes launch, re-allocate
    /// the victim's freed frames (and, with `reuse_pid`, its pid), read the
    /// residue they inherit, then overwrite it with their own heap images.
    ///
    /// This measures both sides of the revival window: how much exploitable
    /// residue a revived process inherits at allocation time, and how much
    /// of the victim's residue survives for the attacker once successors
    /// have run.
    Revival {
        /// Number of successor processes launched (and terminated) between
        /// the victim's termination and the scrape.  Which models they run
        /// is derived deterministically from the scenario seed.
        successors: usize,
        /// Whether the first successor reuses the victim's pid (the
        /// Resurrection Attack's most dangerous configuration).
        reuse_pid: bool,
    },
    /// Live background traffic: `tenants` co-resident model processes stay
    /// running while the attack scrapes, and between scraped chunks each of
    /// `churn_rate` churn events terminates the oldest tenant and launches a
    /// replacement — re-allocating freed frames (the victim's included)
    /// *while* the attacker reads them.
    ///
    /// Churn is interleaved deterministically with the scrape at page-chunk
    /// granularity and sequenced by the scenario seed, never by wall clock,
    /// so campaigns over this schedule stay replayable.
    LiveTraffic {
        /// Number of co-resident tenant processes kept running.
        tenants: usize,
        /// Churn events (tenant terminate + relaunch) executed between
        /// consecutive scraped chunks.
        churn_rate: usize,
    },
    /// Fork-heavy victim: just before terminating, the victim forks
    /// `children` child processes that share its frames copy-on-write and
    /// stay running across the termination and the scrape.
    ///
    /// The children pin the shared frames alive: the kernel retains them at
    /// parent exit instead of freeing them, so frame-oriented sanitize
    /// policies (which scrub only *freed* frames) never touch the victim's
    /// plaintext — a third residue substrate next to DRAM frames and
    /// compressed swap.
    ForkHeavy {
        /// Number of still-running CoW children forked off the victim
        /// before it terminates.
        children: usize,
    },
}

impl std::fmt::Display for VictimSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VictimSchedule::Single => write!(f, "single"),
            VictimSchedule::SequentialTraffic { predecessors } => {
                write!(f, "sequential-traffic({predecessors})")
            }
            VictimSchedule::MultiTenant { active_model, .. } => {
                write!(f, "multi-tenant({active_model})")
            }
            VictimSchedule::Revival {
                successors,
                reuse_pid,
            } => {
                if *reuse_pid {
                    write!(f, "revival({successors},reuse-pid)")
                } else {
                    write!(f, "revival({successors})")
                }
            }
            VictimSchedule::LiveTraffic {
                tenants,
                churn_rate,
            } => {
                write!(f, "live-traffic({tenants},churn={churn_rate})")
            }
            VictimSchedule::ForkHeavy { children } => write!(f, "fork-heavy({children})"),
        }
    }
}

/// Residue-lifetime measurements of one scenario: how long the victim's
/// residue actually survived between termination and the scrape, and what a
/// revived process inherited from it.
///
/// All counts are deterministic ground truth taken from the kernel's frame
/// ownership records at fixed points of the schedule, so they are part of the
/// campaign engine's worker-count-independent comparison surface.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResidueLifetime {
    /// Residue frames the victim left in DRAM at the moment of termination
    /// (zero on boards whose sanitize policy scrubs eagerly).
    pub victim_frames: usize,
    /// Victim residue frames that were overwritten, re-allocated or scrubbed
    /// before the attacker read them — the part of the residue the scrape
    /// arrived too late for.
    pub frames_lost_before_scrape: usize,
    /// Heap frames of the first revived successor process
    /// (zero outside [`VictimSchedule::Revival`]).
    pub revived_heap_frames: usize,
    /// Of those, frames that still held non-zero residue when the revived
    /// process first read its freshly allocated heap.
    pub revival_inherited_frames: usize,
    /// Tenant churn events executed while the scrape was in progress
    /// (zero outside [`VictimSchedule::LiveTraffic`]).
    pub churn_events: usize,
    /// Non-zero bytes the victim's residue frames held in the raw store when
    /// the attack ended (ground truth, before the remanence decay view).
    pub residue_bytes_raw: u64,
    /// Of those, bytes the remanence decay view had already driven to zero —
    /// the analog part of the residue the attacker could no longer read
    /// (zero under the perfect model).
    pub residue_bytes_decayed: u64,
    /// Total bits the remanence decay view flipped away across the victim's
    /// residue (zero under the perfect model).
    pub residue_bits_flipped: u64,
    /// Plaintext bytes of the victim's heap still recoverable from the
    /// compressed swap store when the attack ended (zero with swap disabled,
    /// and zero again under a swap-aware sanitize policy).
    pub swap_resident_bytes: u64,
    /// Victim frames still allocated at termination because forked children
    /// hold them copy-on-write (zero outside
    /// [`VictimSchedule::ForkHeavy`]) — residue no frame-oriented scrub can
    /// legally touch while the children live.
    pub cow_inherited_frames: usize,
}

impl ResidueLifetime {
    /// Fraction of the revived process's heap frames that arrived holding
    /// residue (0.0 when no revival ran or nothing was inherited).
    pub fn inheritance_rate(&self) -> f64 {
        if self.revived_heap_frames == 0 {
            0.0
        } else {
            self.revival_inherited_frames as f64 / self.revived_heap_frames as f64
        }
    }

    /// Fraction of the victim's residue frames that still held victim data
    /// when the attacker read them (0.0 when no residue existed at all).
    pub fn survival_rate(&self) -> f64 {
        if self.victim_frames == 0 {
            0.0
        } else {
            1.0 - self.frames_lost_before_scrape as f64 / self.victim_frames as f64
        }
    }

    /// Fraction of the victim's raw residue bytes that survived the
    /// remanence decay view — the analog (Pentimento-style) analogue of
    /// [`ResidueLifetime::survival_rate`].  1.0 when there was no residue at
    /// all or the model is perfect.
    pub fn decayed_recovery_rate(&self) -> f64 {
        if self.residue_bytes_raw == 0 {
            1.0
        } else {
            1.0 - self.residue_bytes_decayed as f64 / self.residue_bytes_raw as f64
        }
    }
}

/// What the attack recovered, next to the ground truth it should have
/// recovered.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    attack: AttackOutcome,
    ground_truth: CompletedRun,
    scrub_report: Option<ScrubReport>,
    residue_frames_after: usize,
    denied_operations: usize,
    collateral_bytes: u64,
    active_tenant_intact: Option<bool>,
    residue_lifetime: ResidueLifetime,
}

impl ScenarioOutcome {
    /// The attack-side outcome.
    pub fn attack(&self) -> &AttackOutcome {
        &self.attack
    }

    /// The victim-side ground truth.
    pub fn ground_truth(&self) -> &CompletedRun {
        &self.ground_truth
    }

    /// The sanitizer report produced when the victim terminated.
    pub fn scrub_report(&self) -> Option<&ScrubReport> {
        self.scrub_report.as_ref()
    }

    /// Number of residue frames left in DRAM after the attack completed.
    pub fn residue_frames_after(&self) -> usize {
        self.residue_frames_after
    }

    /// Number of debugger operations the isolation policy denied during the
    /// attack.
    pub fn denied_operations(&self) -> usize {
        self.denied_operations
    }

    /// Bytes of other live owners' data destroyed by sanitizer runs, summed
    /// over every scrub on the board (warm-up teardown, predecessor
    /// terminations and the victim's own).
    pub fn collateral_bytes(&self) -> u64 {
        self.collateral_bytes
    }

    /// Whether the co-resident tenants' inputs survived intact in their own
    /// heaps (`None` outside [`VictimSchedule::MultiTenant`] and
    /// [`VictimSchedule::LiveTraffic`]).
    pub fn active_tenant_intact(&self) -> Option<bool> {
        self.active_tenant_intact
    }

    /// Residue-lifetime measurements (revival inheritance, scrape-time
    /// residue loss, churn depth).
    pub fn residue_lifetime(&self) -> ResidueLifetime {
        self.residue_lifetime
    }

    /// The model the attack identified, if any.
    pub fn identified_model(&self) -> Option<ModelKind> {
        self.attack.identified_model()
    }

    /// Returns `true` if the identified model matches the one the victim ran.
    pub fn model_identification_correct(&self) -> bool {
        self.identified_model() == Some(self.ground_truth.model())
    }

    /// Fraction of the victim's input pixels the attack recovered exactly.
    pub fn pixel_recovery_rate(&self) -> f64 {
        self.attack
            .image_recovery_rate(self.ground_truth.input_image())
    }

    /// Bytes scraped from physical memory.
    pub fn bytes_scraped(&self) -> usize {
        self.attack.bytes_scraped
    }

    /// Flattens the outcome into the clone-cheap [`ScenarioMetrics`] record
    /// campaigns aggregate — scalars only, no dumps or images.
    pub fn metrics(&self) -> ScenarioMetrics {
        ScenarioMetrics {
            identified_model: self.identified_model(),
            model_identified: self.model_identification_correct(),
            identification_confidence: self.attack.identification_confidence(),
            pixel_recovery: self.pixel_recovery_rate(),
            bytes_scraped: self.bytes_scraped(),
            dump_coverage: self.attack.dump_coverage,
            residue_frames: self.residue_frames_after,
            denied_operations: self.denied_operations,
            scrub_cost_cycles: self.scrub_report.as_ref().map_or(0.0, |r| r.cost_cycles),
            collateral_bytes: self.collateral_bytes,
            active_tenant_intact: self.active_tenant_intact,
            residue_bits_flipped: self.residue_lifetime.residue_bits_flipped,
            residue_lifetime: self.residue_lifetime,
        }
    }
}

/// The flat, deterministic summary of one scenario run.
///
/// Everything campaign aggregation and the experiment tables need, with none
/// of the memory dumps or reconstructed images a [`ScenarioOutcome`] carries
/// — cells can be collected by the thousand without cloning heaps.  All
/// fields are reproducible for a fixed spec and seed (wall-clock timings live
/// on the campaign cell record instead), which is what makes worker-count
/// independence testable.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioMetrics {
    /// The model identification result, if any signature matched.
    pub identified_model: Option<ModelKind>,
    /// Whether the identification matches the victim's actual model.
    pub model_identified: bool,
    /// Confidence of the identification (0.0 when nothing matched).
    pub identification_confidence: f64,
    /// Fraction of the victim's input pixels recovered exactly.
    pub pixel_recovery: f64,
    /// Bytes scraped from physical memory.
    pub bytes_scraped: usize,
    /// Fraction of heap pages captured by the scrape.
    pub dump_coverage: f64,
    /// Residue frames left in DRAM after the attack.
    pub residue_frames: usize,
    /// Debugger operations denied by the isolation policy.
    pub denied_operations: usize,
    /// Modelled cost of the victim's termination scrub, in cycles.
    pub scrub_cost_cycles: f64,
    /// Live owners' bytes destroyed by sanitizer runs (summed over every
    /// scrub on the board).
    pub collateral_bytes: u64,
    /// Whether the co-resident tenants' data survived
    /// (`None` outside multi-tenant / live-traffic schedules).
    pub active_tenant_intact: Option<bool>,
    /// Bits of the victim's residue the remanence decay view flipped away
    /// (zero under [`zynq_dram::RemanenceModel::Perfect`]); the full
    /// residue-fidelity breakdown lives on `residue_lifetime`.
    pub residue_bits_flipped: u64,
    /// Residue-lifetime measurements (revival inheritance, scrape-time
    /// residue loss, churn depth, remanence decay fidelity).
    pub residue_lifetime: ResidueLifetime,
}

impl ScenarioMetrics {
    /// A deterministic synthetic metrics record derived purely from `seed` —
    /// no scenario executes.
    ///
    /// This backs the campaign engine's test seam
    /// ([`crate::campaign::CampaignCell::synthetic_record`]): fleet-scale
    /// matrices (millions of cells) can exercise the streaming scheduler and
    /// fold without paying for real attacks.  Every internal invariant the
    /// aggregators rely on holds (inherited frames never exceed revived
    /// frames, decayed bytes never exceed raw bytes, rates stay in `[0, 1]`).
    pub fn synthetic(seed: u64) -> ScenarioMetrics {
        let a = splitmix64(seed);
        let b = splitmix64(a);
        let c = splitmix64(b);
        // Top 53 bits → uniform in [0, 1), exactly representable.
        let unit = |x: u64| (x >> 11) as f64 / (1u64 << 53) as f64;
        let identified = a & 3 != 0;
        let victim_frames = (b % 64) as usize + 1;
        let frames_lost = (c % (victim_frames as u64 + 1)) as usize;
        let revived_heap_frames = (a % 32) as usize;
        let residue_bytes_raw = victim_frames as u64 * 4096;
        let residue_bytes_decayed = b % (residue_bytes_raw + 1);
        let residue_bits_flipped = c % 2048;
        ScenarioMetrics {
            identified_model: identified.then_some(ModelKind::Resnet50Pt),
            model_identified: identified,
            identification_confidence: if identified { unit(a) } else { 0.0 },
            pixel_recovery: unit(b),
            bytes_scraped: (a % (1 << 20)) as usize,
            dump_coverage: unit(c),
            residue_frames: victim_frames - frames_lost,
            denied_operations: 0,
            scrub_cost_cycles: 0.0,
            collateral_bytes: 0,
            active_tenant_intact: None,
            residue_bits_flipped,
            residue_lifetime: ResidueLifetime {
                victim_frames,
                frames_lost_before_scrape: frames_lost,
                revived_heap_frames,
                revival_inherited_frames: ((b % 33) as usize).min(revived_heap_frames),
                churn_events: 0,
                residue_bytes_raw,
                residue_bytes_decayed,
                residue_bits_flipped,
                swap_resident_bytes: 0,
                cow_inherited_frames: 0,
            },
        }
    }
}

/// Outcome of a scenario in which the attack could not even complete (e.g.
/// the debugger was confined).  Kept distinct so defense sweeps can report
/// *why* an attack failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioResult {
    /// The attack ran to completion (it may still have recovered nothing).
    Completed,
    /// The attack was blocked by the isolation policy at the given step.
    Blocked {
        /// Description of the step that failed.
        step: String,
    },
}

/// Builder for a full victim-plus-attacker run.
///
/// # Example
///
/// ```
/// use msa_core::scenario::AttackScenario;
/// use petalinux_sim::BoardConfig;
/// use vitis_ai_sim::ModelKind;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let outcome = AttackScenario::new(BoardConfig::tiny_for_tests(), ModelKind::SqueezeNet)
///     .execute()?;
/// assert!(outcome.model_identification_correct());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AttackScenario {
    board: BoardConfig,
    model: ModelKind,
    /// `None` is the sample photo, left to the runner to build at launch.
    /// Shared with every victim launch, so a cell never copies it.
    input: Option<Arc<Image>>,
    victim_user: UserId,
    attacker_user: UserId,
    attack_config: AttackConfig,
    profile_offline: bool,
    profiles_override: Option<ProfileDatabase>,
    schedule: VictimSchedule,
    seed: u64,
}

/// splitmix64 — the standard cheap seed mixer; derives per-stage randomness
/// (predecessor model rotation) from the scenario seed, and per-cell seeds
/// from the campaign seed.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl AttackScenario {
    /// Creates a scenario for `model` on a board with `board` configuration,
    /// using the sample photo as the victim's input.
    pub fn new(board: BoardConfig, model: ModelKind) -> Self {
        AttackScenario {
            board,
            model,
            input: None,
            victim_user: UserId::new(0),
            attacker_user: UserId::new(1),
            attack_config: AttackConfig::default(),
            profile_offline: true,
            profiles_override: None,
            schedule: VictimSchedule::Single,
            seed: 0,
        }
    }

    /// Uses the paper's corrupted (`0xFFFFFF`) image as the victim input.
    pub fn with_corrupted_input(mut self) -> Self {
        let (w, h) = self.model.input_dims();
        self.input = Some(Arc::new(Image::corrupted(w, h)));
        self
    }

    /// Uses an explicit victim input image.
    pub fn with_input(mut self, input: impl Into<Arc<Image>>) -> Self {
        self.input = Some(input.into());
        self
    }

    /// Overrides the attack configuration.
    pub fn with_attack_config(mut self, config: AttackConfig) -> Self {
        self.attack_config = config;
        self
    }

    /// Enables or disables the offline profiling phase (enabled by default).
    pub fn with_offline_profiling(mut self, enabled: bool) -> Self {
        self.profile_offline = enabled;
        self
    }

    /// Supplies a pre-built profile database instead of profiling inline
    /// (used by campaigns and benchmarks to amortize profiling cost).
    pub fn with_profiles(mut self, profiles: ProfileDatabase) -> Self {
        self.profiles_override = Some(profiles);
        self.profile_offline = false;
        self
    }

    /// Sets the attacker's user id (default 1).
    pub fn with_attacker_user(mut self, user: UserId) -> Self {
        self.attacker_user = user;
        self
    }

    /// Sets the victim-traffic schedule (default [`VictimSchedule::Single`]).
    pub fn with_schedule(mut self, schedule: VictimSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the scenario seed, from which schedule-level randomness (e.g.
    /// predecessor model rotation) is derived deterministically.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The board configuration the scenario will use.
    pub fn board(&self) -> &BoardConfig {
        &self.board
    }

    /// The model the victim will run.
    pub fn model(&self) -> ModelKind {
        self.model
    }

    /// The victim-traffic schedule.
    pub fn schedule(&self) -> VictimSchedule {
        self.schedule
    }

    /// Stage 0: resolves the profile database the pipeline will use.
    ///
    /// Offline profiling happens on the attacker's own board, before the
    /// victim runs.  It replays the same board configuration but is not
    /// subject to the victim board's isolation policy (the attacker is root
    /// on their own hardware), so it profiles on the permissive variant.
    pub fn resolve_profiles(&self) -> ProfileDatabase {
        if let Some(profiles) = &self.profiles_override {
            profiles.clone()
        } else if self.profile_offline {
            let offline_board = self
                .board
                .with_isolation(petalinux_sim::IsolationPolicy::Permissive);
            let profiler = Profiler::new(offline_board);
            match profiler.profile_model(self.model) {
                Ok(profile) => {
                    let mut db = ProfileDatabase::new();
                    db.insert(profile);
                    db
                }
                Err(_) => ProfileDatabase::new(),
            }
        } else {
            ProfileDatabase::new()
        }
    }

    /// Stage 1: boots the board, builds the pipeline and plays the schedule
    /// prologue (predecessor traffic / co-tenant launch).
    ///
    /// # Errors
    ///
    /// Propagates kernel errors from the schedule prologue.
    pub fn boot(&self) -> Result<BootedScenario<'_>, AttackError> {
        let profiles = self.resolve_profiles();

        let mut config = self.attack_config.clone();
        if matches!(
            self.schedule,
            VictimSchedule::MultiTenant { .. } | VictimSchedule::LiveTraffic { .. }
        ) && config.victim_pattern.is_none()
        {
            // Several model processes run at once; target the victim by name
            // so polling cannot latch onto a co-resident tenant.
            config.victim_pattern = Some(self.model.name().to_string());
        }
        let pipeline = AttackPipeline::new(config).with_profiles(profiles);

        // The seed-rotated traffic zoo (successors, tenants, churn
        // replacements), computed once per scenario.  It never includes the
        // victim's own model, so traffic processes are distinguishable from
        // the victim by name (and a revival misidentification is a real
        // misidentification).
        let mut traffic_zoo: Vec<ModelKind> = ModelKind::all()
            .into_iter()
            .filter(|m| *m != self.model)
            .collect();
        let start = (splitmix64(self.seed ^ 0x7AFF_1C00) % traffic_zoo.len() as u64) as usize;
        traffic_zoo.rotate_left(start);

        // The board's remanence decay draws are seeded from the scenario
        // seed, so a decayed scrape replays exactly per campaign cell.
        let mut kernel = Kernel::boot(self.board);
        kernel.set_remanence_seed(splitmix64(self.seed ^ 0x6B5F_0D7A));

        let mut booted = BootedScenario {
            scenario: self,
            kernel,
            pipeline,
            tenants: Vec::new(),
            traffic_zoo,
            traffic_cursor: 0,
        };
        booted.play_prologue()?;
        Ok(booted)
    }

    /// Runs the scenario end to end (stages 1–3).
    ///
    /// # Errors
    ///
    /// Returns an [`AttackError`] when the attack cannot complete — most
    /// commonly [`AttackError::Channel`] under a confined isolation policy.
    /// Use [`AttackScenario::execute_allow_blocked`] to treat that as data
    /// rather than an error.
    pub fn execute(&self) -> Result<ScenarioOutcome, AttackError> {
        self.boot()?.run()
    }

    /// Runs the scenario, but treats an isolation-policy denial as a
    /// legitimate result (`Blocked`) rather than an error.
    ///
    /// # Errors
    ///
    /// Returns only errors that are not permission denials.
    pub fn execute_allow_blocked(
        &self,
    ) -> Result<(ScenarioResult, Option<ScenarioOutcome>), AttackError> {
        match self.execute() {
            Ok(outcome) => Ok((ScenarioResult::Completed, Some(outcome))),
            Err(AttackError::Channel(petalinux_sim::KernelError::PermissionDenied {
                operation,
                ..
            })) => Ok((
                ScenarioResult::Blocked {
                    step: operation.to_string(),
                },
                None,
            )),
            Err(e) => Err(e),
        }
    }
}

/// Pages scraped between two churn opportunities under
/// [`VictimSchedule::LiveTraffic`].
const CHURN_CHUNK_PAGES: usize = 8;

/// The physical frames currently backing `pid`'s heap, in virtual order.
fn heap_frames(kernel: &Kernel, pid: Pid) -> Result<Vec<FrameNumber>, AttackError> {
    let process = kernel.process(pid)?;
    let space = process.address_space();
    let mut frames = Vec::new();
    let mut va = process.heap_base();
    while va < process.heap_end() {
        if let Some(pa) = space.translate(va) {
            frames.push(pa.frame_number());
        }
        va += PAGE_SIZE;
    }
    Ok(frames)
}

/// Whether a victim residue frame is no longer available to the attacker: it
/// was re-allocated to a later process, re-owned by a live one, or scrubbed.
fn frame_lost(kernel: &Kernel, frame: FrameNumber, reclaimed: &BTreeSet<FrameNumber>) -> bool {
    if reclaimed.contains(&frame) {
        return true;
    }
    match kernel.dram().frame_ownership(frame) {
        Some(record) => record.live,
        None => true,
    }
}

/// Stage-1 output: a booted board with the schedule prologue applied, ready
/// to launch the victim and run the attacker.
#[derive(Debug)]
pub struct BootedScenario<'a> {
    scenario: &'a AttackScenario,
    kernel: Kernel,
    pipeline: AttackPipeline,
    /// Co-resident tenants still running, oldest first (one under
    /// `MultiTenant`, `tenants` under `LiveTraffic`).
    tenants: Vec<LaunchedRun>,
    /// The seed-rotated model zoo traffic processes draw from (victim's own
    /// model excluded), fixed at boot.
    traffic_zoo: Vec<ModelKind>,
    /// Position in the traffic-model rotation (shared by the prologue,
    /// revival successors and live churn so models never repeat
    /// back-to-back within a scenario).
    traffic_cursor: usize,
}

impl<'a> BootedScenario<'a> {
    /// The booted kernel (inspectable between stages).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The attack pipeline the attacker stage will run.
    pub fn pipeline(&self) -> &AttackPipeline {
        &self.pipeline
    }

    /// The first co-resident tenant, when the schedule launched one.
    pub fn active_tenant(&self) -> Option<&LaunchedRun> {
        self.tenants.first()
    }

    /// All co-resident tenants currently running, oldest first.
    pub fn tenants(&self) -> &[LaunchedRun] {
        &self.tenants
    }

    /// The `index`-th model of the scenario's deterministic traffic rotation.
    fn traffic_model(&self, index: usize) -> ModelKind {
        self.traffic_zoo[index % self.traffic_zoo.len()]
    }

    /// Launches one tenant process with the next rotation model.
    fn launch_tenant(&mut self, user: UserId) -> Result<(), AttackError> {
        let model = self.traffic_model(self.traffic_cursor);
        self.traffic_cursor += 1;
        let run = DpuRunner::new(model)
            .launch(&mut self.kernel, user)
            .map_err(runner_error)?;
        self.tenants.push(run);
        Ok(())
    }

    fn play_prologue(&mut self) -> Result<(), AttackError> {
        match self.scenario.schedule {
            VictimSchedule::Single
            | VictimSchedule::Revival { .. }
            | VictimSchedule::ForkHeavy { .. } => Ok(()),
            VictimSchedule::SequentialTraffic { predecessors } => {
                let zoo = ModelKind::all();
                let start = (splitmix64(self.scenario.seed) % zoo.len() as u64) as usize;
                for i in 0..predecessors {
                    let model = zoo[(start + i) % zoo.len()];
                    let run = DpuRunner::new(model)
                        .launch(&mut self.kernel, self.scenario.victim_user)
                        .map_err(runner_error)?;
                    run.terminate(&mut self.kernel).map_err(runner_error)?;
                }
                Ok(())
            }
            VictimSchedule::MultiTenant {
                active_model,
                warmup_pages,
            } => {
                // Fragment the allocator: a warm-up process claims a block of
                // low frames and releases it again after the active tenant
                // has started, so the victim's allocation is split across the
                // hole and fresh frames above the active tenant.
                let warmup = self.kernel.spawn(self.scenario.victim_user, &["warmup"])?;
                self.kernel
                    .grow_heap(warmup, warmup_pages * zynq_dram::PAGE_SIZE)?;

                let active_user = UserId::new(self.scenario.victim_user.as_u32() + 2);
                let active = DpuRunner::new(active_model)
                    .launch(&mut self.kernel, active_user)
                    .map_err(runner_error)?;
                self.kernel.terminate(warmup)?;
                self.tenants.push(active);
                Ok(())
            }
            VictimSchedule::LiveTraffic { tenants, .. } => {
                for i in 0..tenants {
                    let user = UserId::new(self.scenario.victim_user.as_u32() + 2 + i as u32);
                    self.launch_tenant(user)?;
                }
                Ok(())
            }
        }
    }

    /// Revival epilogue: between the victim's termination and the scrape,
    /// launch successor processes that re-allocate the victim's freed frames
    /// (and optionally its pid), measure the residue each inherits, then let
    /// them overwrite it and terminate.
    fn play_revival_epilogue(
        &mut self,
        victim_pid: Pid,
        lifetime: &mut ResidueLifetime,
        reclaimed: &mut BTreeSet<FrameNumber>,
    ) -> Result<(), AttackError> {
        let VictimSchedule::Revival {
            successors,
            reuse_pid,
        } = self.scenario.schedule
        else {
            return Ok(());
        };
        for i in 0..successors {
            let model = self.traffic_model(self.traffic_cursor);
            self.traffic_cursor += 1;
            let binary = format!("./{}", model.name());
            let xmodel_path = model.xmodel_path();
            let cmdline = [binary.as_str(), xmodel_path.as_str()];
            let pid = if reuse_pid && i == 0 {
                self.kernel
                    .spawn_reusing_pid(self.scenario.victim_user, &cmdline, victim_pid)?
            } else {
                self.kernel.spawn(self.scenario.victim_user, &cmdline)?
            };

            // Deliberately NOT `DpuRunner::launch`: the successor must read
            // its heap *between* allocation and the runtime's first write
            // (the inheritance measurement), which the runner's launch
            // sequence gives no hook for; successors also skip the inference
            // pass, since only their memory footprint matters here.
            let (w, h) = model.input_dims();
            let (bytes, layout) = heap_image(model, &Image::sample_photo(w, h));
            self.kernel.grow_heap(pid, layout.heap_len)?;
            let heap = self.kernel.process(pid)?.heap_base();

            // A revived process sees its freshly allocated heap *before*
            // writing anything — exactly the read that inherits residue.
            // Only the first successor's inheritance is measured; the read
            // takes no tick, so later successors skip it.
            if i == 0 {
                let mut inherited = vec![0u8; layout.heap_len as usize];
                self.kernel.read_process_memory(pid, heap, &mut inherited)?;
                let zero_page = [0u8; PAGE_SIZE as usize];
                lifetime.revived_heap_frames = (layout.heap_len / PAGE_SIZE) as usize;
                lifetime.revival_inherited_frames = inherited
                    .chunks(PAGE_SIZE as usize)
                    .filter(|page| **page != zero_page[..page.len()])
                    .count();
            }
            reclaimed.extend(heap_frames(&self.kernel, pid)?);

            self.kernel.write_process_memory(pid, heap, &bytes)?;
            self.kernel.terminate(pid)?;
        }
        Ok(())
    }

    /// One live-traffic churn event: the oldest tenant terminates and a
    /// replacement launches, re-allocating freed frames mid-scrape.
    ///
    /// Returns `false` (no event) when there is no tenant to cycle.
    fn churn_tenant_once(
        &mut self,
        reclaimed: &mut BTreeSet<FrameNumber>,
    ) -> Result<bool, AttackError> {
        if self.tenants.is_empty() {
            return Ok(false);
        }
        let oldest = self.tenants.remove(0);
        let user = self.kernel.process(oldest.pid())?.user();
        oldest.terminate(&mut self.kernel).map_err(runner_error)?;
        self.launch_tenant(user)?;
        let newest = self.tenants.last().expect("tenant just launched");
        reclaimed.extend(heap_frames(&self.kernel, newest.pid())?);
        Ok(true)
    }

    /// Scrape under live traffic: reads the heap in page chunks, running the
    /// schedule's churn events between chunks, and counts each victim
    /// residue frame that was already gone when its page was read.  Returns
    /// the dump before the swap overlay.
    #[allow(clippy::too_many_arguments)]
    fn scrape_with_churn(
        &mut self,
        debugger: &mut DebugSession,
        observation: &Observation,
        churn_rate: usize,
        victim_residue: &BTreeSet<FrameNumber>,
        lifetime: &mut ResidueLifetime,
        reclaimed: &mut BTreeSet<FrameNumber>,
    ) -> Result<MemoryDump, AttackError> {
        if debugger.is_running(&self.kernel, observation.pid()) {
            return Err(AttackError::VictimStillRunning {
                pid: observation.pid(),
            });
        }
        let translation = observation.translation();
        let mode = self.pipeline.config().scrape_mode;
        mode.validate()?;
        let pid = translation.pid();
        // A zero-length window is a typed empty dump, exactly as on the
        // single-sweep paths (`crate::scrape`): checked before any physical
        // usability test, so a degenerate translation with no pages at all
        // scores an empty outcome instead of erroring.
        if translation.heap_len() == 0 {
            return Ok(MemoryDump::empty(translation.heap_start()));
        }
        // Mode-specific usability checks, mirroring `crate::scrape`: the
        // endpoint attackers (contiguous and its multi-snapshot variant)
        // need the first page resident, the per-page attacker needs any page
        // at all.  Churn interleaves at page-chunk granularity, so both
        // contiguous attackers scrape chunk-identically here, which keeps
        // LiveTraffic dumps byte-comparable across scrape modes.
        let contiguous_start = if mode.reads_contiguous_range() {
            Some(
                translation
                    .phys_start()
                    .ok_or(AttackError::TranslationEmpty { pid })?,
            )
        } else {
            if translation.present_pages() == 0 {
                return Err(AttackError::TranslationEmpty { pid });
            }
            None
        };

        let window = self.kernel.config().dram();
        let mut captured: Vec<Option<(PhysAddr, Vec<u8>)>> =
            Vec::with_capacity(translation.pages().len());
        for (index, page) in translation.pages().iter().enumerate() {
            if index > 0 && index % CHURN_CHUNK_PAGES == 0 {
                // Each churned chunk is one logical tick: the slow, chunked
                // scrape gives residue time to decay under a non-perfect
                // remanence model (and gives background scrubbers time to
                // fire), sequenced by chunk count — never wall clock — so
                // campaigns stay replayable.
                self.kernel.tick(1);
                for _ in 0..churn_rate {
                    // Only churn that actually happened counts: with no
                    // tenants to cycle there is no event to record.
                    if self.churn_tenant_once(reclaimed)? {
                        lifetime.churn_events += 1;
                    }
                }
            }
            // Residue-lifetime accounting at the moment of the read: was this
            // page's frame still victim residue when the attacker got to it?
            if let Some(pa) = page {
                let frame = pa.frame_number();
                if victim_residue.contains(&frame) && frame_lost(&self.kernel, frame, reclaimed) {
                    lifetime.frames_lost_before_scrape += 1;
                }
            }
            // The paper's endpoint-based attacker assumes contiguity from the
            // first page; the per-page attacker uses each page's translation.
            // Edge semantics mirror `crate::scrape` exactly, so a LiveTraffic
            // dump is byte-comparable to a Single-schedule one: contiguous
            // reads clamp to the DRAM window and zero-pad, per-page reads
            // propagate channel errors.
            if mode.reads_contiguous_range() {
                let pa = contiguous_start.expect("checked for contiguous mode")
                    + index as u64 * PAGE_SIZE;
                if pa < window.end() {
                    let available = window.end().offset_from(pa).min(PAGE_SIZE) as usize;
                    let mut bytes = debugger.read_phys_range(&self.kernel, pa, available)?;
                    bytes.resize(PAGE_SIZE as usize, 0);
                    captured.push(Some((pa, bytes)));
                } else {
                    captured.push(None);
                }
            } else {
                match page {
                    Some(pa) => {
                        let bytes =
                            debugger.read_phys_range(&self.kernel, *pa, PAGE_SIZE as usize)?;
                        captured.push(Some((*pa, bytes)));
                    }
                    None => captured.push(None),
                }
            }
        }
        Ok(if mode.reads_contiguous_range() {
            let start = contiguous_start.expect("checked for contiguous mode");
            let heap_len = translation.heap_len() as usize;
            let mut bytes = Vec::with_capacity(heap_len);
            for page in &captured {
                match page {
                    Some((_, data)) => bytes.extend_from_slice(data),
                    None => bytes.extend(std::iter::repeat_n(0u8, PAGE_SIZE as usize)),
                }
            }
            bytes.truncate(heap_len);
            // The multi-snapshot attacker takes its remaining reads here, one
            // decay tick apart, pinned relative to the scrape start: the
            // churned chunk pass above is snapshot 1 (its ticks are sequenced
            // by chunk count), and the further snapshots are full-range
            // re-reads starting a tick later, taken by the same multi-tick
            // read as the single-sweep scrape.
            if let ScrapeMode::MultiSnapshot { snapshots } = mode {
                let mut reads = vec![std::mem::take(&mut bytes)];
                if snapshots > 1 {
                    self.kernel.tick(1);
                    if start < window.end() {
                        let available = window.end().offset_from(start).min(heap_len as u64);
                        reads.extend(debugger.read_phys_snapshots(
                            &mut self.kernel,
                            start,
                            available as usize,
                            snapshots - 1,
                        )?);
                    } else {
                        // Nothing past the window end to read, but the
                        // snapshots' ticks still pass.
                        for _ in 2..snapshots {
                            self.kernel.tick(1);
                        }
                    }
                }
                bytes = crate::analysis::reconstruct::fuse_snapshots(&reads);
                bytes.resize(heap_len, 0);
            }
            MemoryDump::from_contiguous(translation.heap_start(), start, bytes)
        } else {
            MemoryDump::from_pages(translation.heap_start(), captured)
        })
    }

    /// Stage 2: launches the victim model on the booted board.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors from the launch.
    pub fn launch_victim(&mut self) -> Result<LaunchedRun, AttackError> {
        let mut runner = DpuRunner::new(self.scenario.model);
        if let Some(input) = &self.scenario.input {
            runner = runner.with_input(Arc::clone(input));
        }
        runner
            .launch(&mut self.kernel, self.scenario.victim_user)
            .map_err(runner_error)
    }

    /// Stage 3: the attacker observes `victim`, the victim terminates, the
    /// schedule's post-termination traffic plays (revival successors, live
    /// churn), the attacker scrapes and analyses, and the result is scored
    /// against ground truth.
    ///
    /// # Errors
    ///
    /// Propagates attack errors (permission denials under confined isolation,
    /// translation failures, …).
    pub fn run_attack(&mut self, victim: LaunchedRun) -> Result<ScenarioOutcome, AttackError> {
        let mut debugger = DebugSession::connect(self.scenario.attacker_user);

        let observation = self
            .pipeline
            .poll_and_observe(&mut debugger, &self.kernel)?;
        let victim_pid = victim.pid();
        let victim_tag = victim_pid.owner_tag();

        // Fork-heavy schedule: the children fork *after* the observation (so
        // polling latched onto the victim, not a child) and just before the
        // termination whose scrub they are about to defeat.  They stay
        // running through the scrape, pinning the shared frames alive.
        if let VictimSchedule::ForkHeavy { children } = self.scenario.schedule {
            for _ in 0..children {
                self.kernel.fork(victim_pid)?;
            }
        }

        let ground_truth = victim.terminate(&mut self.kernel).map_err(runner_error)?;
        let scrub_report = self.kernel.scrub_reports().last().cloned();

        // Residue-lifetime bookkeeping starts at the moment of termination:
        // these are the frames an ideal (instant) scrape could still read.
        let victim_residue: BTreeSet<FrameNumber> = self
            .kernel
            .dram()
            .residue_frames()
            .filter(|(_, owner)| *owner == victim_tag)
            .map(|(frame, _)| frame)
            .collect();
        let mut lifetime = ResidueLifetime {
            victim_frames: victim_residue.len(),
            ..ResidueLifetime::default()
        };
        // Substrate accounting at the moment of termination: victim frames a
        // CoW child still holds allocated (retained, so frame scrubs skipped
        // them), and victim plaintext sitting in the compressed swap store.
        lifetime.cow_inherited_frames = victim_residue
            .iter()
            .filter(|frame| self.kernel.allocator().is_allocated(**frame))
            .count();
        lifetime.swap_resident_bytes = self
            .kernel
            .dram()
            .swap_store()
            .residue_bytes(Some(victim_tag));
        let mut reclaimed: BTreeSet<FrameNumber> = BTreeSet::new();

        self.play_revival_epilogue(victim_pid, &mut lifetime, &mut reclaimed)?;

        let (attack, final_read) = match self.scenario.schedule {
            VictimSchedule::LiveTraffic { churn_rate, .. } => {
                let scrape_start = Instant::now();
                let mut dump = self.scrape_with_churn(
                    &mut debugger,
                    &observation,
                    churn_rate,
                    &victim_residue,
                    &mut lifetime,
                    &mut reclaimed,
                )?;
                // Drain the compressed-swap channel before scoring, exactly
                // as the single-sweep `execute_mut` path does.
                self.pipeline
                    .read_swap_residue(&self.kernel, &observation, &mut dump);
                let outcome = self
                    .pipeline
                    .score_dump(&observation, &dump, scrape_start.elapsed());
                (outcome, None)
            }
            _ => {
                // No mutation happens during the scrape itself: the loss
                // count is exact when taken just before the read starts.
                lifetime.frames_lost_before_scrape = victim_residue
                    .iter()
                    .filter(|frame| frame_lost(&self.kernel, **frame, &reclaimed))
                    .count();
                self.pipeline.execute_mut_with_final_read(
                    &mut debugger,
                    &mut self.kernel,
                    &observation,
                )?
            }
        };

        // Residue-fidelity accounting: how much of the victim's residue the
        // remanence decay view had taken away by the time the attack ended
        // (all zeros under the perfect model).  A multi-snapshot scrape ends
        // on its last snapshot's tick, so the victim frames that read covers
        // are counted from it, with no second decay sweep.
        let dram = self.kernel.dram();
        let decay = match &final_read {
            Some((addr, read)) => dram.residue_decay_from_read(Some(victim_tag), *addr, read),
            None => dram.residue_decay(Some(victim_tag)),
        };
        lifetime.residue_bytes_raw = decay.raw_bytes;
        lifetime.residue_bytes_decayed = decay.raw_bytes - decay.surviving_bytes;
        lifetime.residue_bits_flipped = decay.bits_flipped;

        let collateral_bytes = self
            .kernel
            .scrub_reports()
            .iter()
            .map(|r| r.collateral_bytes)
            .sum();
        let active_tenant_intact = if self.tenants.is_empty() {
            None
        } else {
            let mut all_intact = true;
            for tenant in &self.tenants {
                all_intact &= self.active_tenant_data_intact(tenant)?;
            }
            Some(all_intact)
        };

        Ok(ScenarioOutcome {
            attack,
            ground_truth,
            scrub_report,
            residue_frames_after: self.kernel.residue_frame_count(),
            denied_operations: debugger.audit().denied_count(),
            collateral_bytes,
            active_tenant_intact,
            residue_lifetime: lifetime,
        })
    }

    /// Ground truth for a co-resident tenant: is its input image still
    /// intact in its own (still mapped) heap?
    fn active_tenant_data_intact(&self, active: &LaunchedRun) -> Result<bool, AttackError> {
        let layout = active.layout();
        let expected = active.input_image().as_bytes();
        let mut live = vec![0u8; expected.len()];
        let heap_base = self.kernel.process(active.pid())?.heap_base();
        self.kernel.read_process_memory(
            active.pid(),
            heap_base + layout.image_offset,
            &mut live,
        )?;
        Ok(live == expected)
    }

    /// Drives stages 2–3 back to back.
    ///
    /// # Errors
    ///
    /// Propagates launch and attack errors.
    pub fn run(mut self) -> Result<ScenarioOutcome, AttackError> {
        let victim = self.launch_victim()?;
        self.run_attack(victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::ScrapeMode;
    use petalinux_sim::IsolationPolicy;
    use std::time::Duration;
    use zynq_dram::SanitizePolicy;

    #[test]
    fn default_scenario_recovers_everything() {
        let outcome = AttackScenario::new(BoardConfig::tiny_for_tests(), ModelKind::Resnet50Pt)
            .execute()
            .unwrap();
        assert!(outcome.model_identification_correct());
        assert_eq!(outcome.identified_model(), Some(ModelKind::Resnet50Pt));
        assert!(outcome.pixel_recovery_rate() > 0.99);
        assert!(outcome.bytes_scraped() > 0);
        assert!(outcome.residue_frames_after() > 0);
        assert_eq!(outcome.denied_operations(), 0);
        assert!(outcome.scrub_report().unwrap().leaves_residue());
        assert_eq!(outcome.ground_truth().model(), ModelKind::Resnet50Pt);
        assert!(outcome.attack().timings.total() > std::time::Duration::ZERO);
        assert!(outcome.active_tenant_intact().is_none());
        assert_eq!(outcome.collateral_bytes(), 0);
    }

    #[test]
    fn corrupted_input_scenario_matches_the_paper() {
        let outcome = AttackScenario::new(BoardConfig::tiny_for_tests(), ModelKind::Resnet50Pt)
            .with_corrupted_input()
            .execute()
            .unwrap();
        assert!(outcome.model_identification_correct());
        assert!(outcome.pixel_recovery_rate() > 0.99);
        assert!(!outcome.attack().marker_runs.is_empty());
    }

    #[test]
    fn sanitized_board_reduces_recovery_to_zero() {
        let board =
            BoardConfig::tiny_for_tests().with_sanitize_policy(SanitizePolicy::SelectiveScrub);
        let outcome = AttackScenario::new(board, ModelKind::Resnet50Pt)
            .with_corrupted_input()
            .execute()
            .unwrap();
        assert!(!outcome.model_identification_correct());
        assert_eq!(outcome.pixel_recovery_rate(), 0.0);
        assert_eq!(outcome.residue_frames_after(), 0);
        assert!(!outcome.scrub_report().unwrap().leaves_residue());
    }

    #[test]
    fn confined_isolation_blocks_the_attack() {
        let board = BoardConfig::tiny_for_tests().with_isolation(IsolationPolicy::Confined);
        let scenario = AttackScenario::new(board, ModelKind::SqueezeNet);
        assert!(scenario.execute().is_err());
        let (result, outcome) = scenario.execute_allow_blocked().unwrap();
        assert!(matches!(result, ScenarioResult::Blocked { .. }));
        assert!(outcome.is_none());
    }

    #[test]
    fn builder_options_are_respected() {
        let profiles = Profiler::new(BoardConfig::tiny_for_tests()).profile_all();
        let scenario = AttackScenario::new(BoardConfig::tiny_for_tests(), ModelKind::MobileNetV2)
            .with_input(Image::profiling_sentinel(224, 224))
            .with_profiles(profiles)
            .with_attacker_user(UserId::new(7))
            .with_attack_config(AttackConfig {
                victim_pattern: Some("mobilenet".to_string()),
                ..AttackConfig::default()
            })
            .with_offline_profiling(false);
        assert_eq!(scenario.model(), ModelKind::MobileNetV2);
        assert_eq!(
            scenario.board().dram(),
            BoardConfig::tiny_for_tests().dram()
        );
        let outcome = scenario.execute().unwrap();
        assert!(outcome.model_identification_correct());
        // Sentinel input: recovered exactly, via the profiled offset.
        assert!(outcome.pixel_recovery_rate() > 0.99);
    }

    #[test]
    fn stages_run_separately_and_match_one_shot_execute() {
        let scenario = AttackScenario::new(BoardConfig::tiny_for_tests(), ModelKind::SqueezeNet)
            .with_corrupted_input();
        let mut booted = scenario.boot().unwrap();
        assert!(booted.active_tenant().is_none());
        assert!(!booted.pipeline().profiles().is_empty());
        let victim = booted.launch_victim().unwrap();
        assert!(booted.kernel().process(victim.pid()).unwrap().is_running());
        let staged = booted.run_attack(victim).unwrap();

        let one_shot = scenario.execute().unwrap();
        assert_eq!(staged.metrics(), one_shot.metrics());
    }

    #[test]
    fn sequential_traffic_schedule_still_recovers_the_victim() {
        let scenario = AttackScenario::new(BoardConfig::tiny_for_tests(), ModelKind::Resnet50Pt)
            .with_corrupted_input()
            .with_schedule(VictimSchedule::SequentialTraffic { predecessors: 2 })
            .with_seed(7);
        assert_eq!(
            scenario.schedule(),
            VictimSchedule::SequentialTraffic { predecessors: 2 }
        );
        let outcome = scenario.execute().unwrap();
        assert!(outcome.model_identification_correct());
        assert!(outcome.pixel_recovery_rate() > 0.99);
        // Predecessor residue stays behind on an unsanitized board.
        let single = AttackScenario::new(BoardConfig::tiny_for_tests(), ModelKind::Resnet50Pt)
            .with_corrupted_input()
            .execute()
            .unwrap();
        assert!(outcome.residue_frames_after() >= single.residue_frames_after());
        // Same seed replays the same traffic.
        let replay = scenario.execute().unwrap();
        assert_eq!(outcome.metrics(), replay.metrics());
    }

    #[test]
    fn multi_tenant_schedule_reports_co_tenant_state() {
        let scenario = AttackScenario::new(BoardConfig::tiny_for_tests(), ModelKind::SqueezeNet)
            .with_corrupted_input()
            .with_schedule(VictimSchedule::MultiTenant {
                active_model: ModelKind::MobileNetV2,
                warmup_pages: 16,
            });
        let outcome = scenario.execute().unwrap();
        // No sanitization: the attack succeeds and the co-tenant is intact.
        assert!(outcome.model_identification_correct());
        assert_eq!(outcome.active_tenant_intact(), Some(true));
        assert_eq!(outcome.collateral_bytes(), 0);
    }

    #[test]
    fn schedule_display_names() {
        assert_eq!(VictimSchedule::Single.to_string(), "single");
        assert_eq!(
            VictimSchedule::SequentialTraffic { predecessors: 3 }.to_string(),
            "sequential-traffic(3)"
        );
        assert_eq!(
            VictimSchedule::MultiTenant {
                active_model: ModelKind::YoloV3,
                warmup_pages: 16
            }
            .to_string(),
            "multi-tenant(yolov3)"
        );
        assert_eq!(
            VictimSchedule::Revival {
                successors: 2,
                reuse_pid: true
            }
            .to_string(),
            "revival(2,reuse-pid)"
        );
        assert_eq!(
            VictimSchedule::Revival {
                successors: 1,
                reuse_pid: false
            }
            .to_string(),
            "revival(1)"
        );
        assert_eq!(
            VictimSchedule::LiveTraffic {
                tenants: 2,
                churn_rate: 3
            }
            .to_string(),
            "live-traffic(2,churn=3)"
        );
        assert_eq!(
            VictimSchedule::ForkHeavy { children: 2 }.to_string(),
            "fork-heavy(2)"
        );
        assert_eq!(VictimSchedule::default(), VictimSchedule::Single);
    }

    #[test]
    fn revival_successor_inherits_then_destroys_the_residue() {
        let scenario = AttackScenario::new(BoardConfig::tiny_for_tests(), ModelKind::SqueezeNet)
            .with_corrupted_input()
            .with_schedule(VictimSchedule::Revival {
                successors: 1,
                reuse_pid: true,
            })
            .with_seed(11);
        let outcome = scenario.execute().unwrap();
        let lifetime = outcome.residue_lifetime();

        // The victim left residue, and the revived process inherited it in
        // its freshly allocated heap frames.
        assert!(lifetime.victim_frames > 0);
        assert!(lifetime.revived_heap_frames > 0);
        assert!(lifetime.revival_inherited_frames > 0);
        assert!(lifetime.inheritance_rate() > 0.0);
        assert!(lifetime.inheritance_rate() <= 1.0);
        // Inherited frames come from the reused pool, never exceed it.
        assert!(lifetime.revival_inherited_frames <= lifetime.victim_frames);

        // The successor then overwrote the reused frames, so the attacker
        // arrived too late: residue lost, recovery destroyed.
        assert!(lifetime.frames_lost_before_scrape > 0);
        assert!(lifetime.survival_rate() < 1.0);
        assert!(outcome.pixel_recovery_rate() < 0.5);
        assert!(!outcome.model_identification_correct());

        // Same seed replays the same revival, byte for byte.
        let replay = scenario.execute().unwrap();
        assert_eq!(outcome.metrics(), replay.metrics());
    }

    #[test]
    fn revival_without_pid_reuse_still_inherits_frames() {
        let outcome = AttackScenario::new(BoardConfig::tiny_for_tests(), ModelKind::SqueezeNet)
            .with_schedule(VictimSchedule::Revival {
                successors: 2,
                reuse_pid: false,
            })
            .with_seed(5)
            .execute()
            .unwrap();
        let lifetime = outcome.residue_lifetime();
        assert!(lifetime.revival_inherited_frames > 0);
        assert!(lifetime.frames_lost_before_scrape > 0);
    }

    #[test]
    fn sanitize_on_free_drives_revival_inheritance_to_zero() {
        let board = BoardConfig::tiny_for_tests().with_sanitize_policy(SanitizePolicy::ZeroOnFree);
        let outcome = AttackScenario::new(board, ModelKind::SqueezeNet)
            .with_corrupted_input()
            .with_schedule(VictimSchedule::Revival {
                successors: 1,
                reuse_pid: true,
            })
            .execute()
            .unwrap();
        let lifetime = outcome.residue_lifetime();
        // The victim's frames were scrubbed at termination: nothing to
        // inherit, nothing to survive.
        assert_eq!(lifetime.victim_frames, 0);
        assert_eq!(lifetime.revival_inherited_frames, 0);
        assert_eq!(lifetime.inheritance_rate(), 0.0);
        assert_eq!(lifetime.survival_rate(), 0.0);
    }

    #[test]
    fn fork_heavy_cow_residue_survives_zero_on_free() {
        let board = BoardConfig::tiny_for_tests().with_sanitize_policy(SanitizePolicy::ZeroOnFree);
        let scenario = AttackScenario::new(board, ModelKind::SqueezeNet)
            .with_corrupted_input()
            .with_schedule(VictimSchedule::ForkHeavy { children: 2 })
            .with_seed(17);
        let outcome = scenario.execute().unwrap();
        let lifetime = outcome.residue_lifetime();

        // The CoW children pinned the victim's frames alive through
        // termination, so the zero-on-free scrub (which touches only freed
        // frames) never reached the plaintext: the attack recovers in full
        // on a board whose policy defeats it for a single victim.
        assert!(lifetime.victim_frames > 0);
        assert!(lifetime.cow_inherited_frames > 0);
        assert!(lifetime.cow_inherited_frames <= lifetime.victim_frames);
        assert!(outcome.model_identification_correct());
        assert!(outcome.pixel_recovery_rate() > 0.99);

        // The same board without forked children scrubs everything.
        let scrubbed = AttackScenario::new(board, ModelKind::SqueezeNet)
            .with_corrupted_input()
            .with_seed(17)
            .execute()
            .unwrap();
        assert_eq!(scrubbed.residue_lifetime().cow_inherited_frames, 0);
        assert_eq!(scrubbed.residue_lifetime().victim_frames, 0);
        assert!(!scrubbed.model_identification_correct());
        assert_eq!(scrubbed.pixel_recovery_rate(), 0.0);

        // Same seed replays the fork-heavy run exactly.
        let replay = scenario.execute().unwrap();
        assert_eq!(outcome.metrics(), replay.metrics());
    }

    #[test]
    fn swap_residue_leaks_past_zero_on_free_until_a_swap_aware_scrub() {
        // Memory pressure swaps the victim's heap out (compressed) before
        // termination; zero-on-free then scrubs the DRAM frames but never
        // the swap slots, so the attacker decompresses the slots and
        // recovers what the scrub was supposed to destroy.
        let leaky = BoardConfig::tiny_for_tests()
            .with_sanitize_policy(SanitizePolicy::ZeroOnFree)
            .with_swap(100);
        let scenario = AttackScenario::new(leaky, ModelKind::SqueezeNet)
            .with_corrupted_input()
            .with_seed(19);
        let outcome = scenario.execute().unwrap();
        assert!(outcome.residue_lifetime().swap_resident_bytes > 0);
        assert!(outcome.model_identification_correct());
        assert!(outcome.pixel_recovery_rate() > 0.99);

        // A swap-aware scrub closes the channel completely.
        let sealed = BoardConfig::tiny_for_tests()
            .with_sanitize_policy(SanitizePolicy::ZeroOnFreeSwap)
            .with_swap(100);
        let closed = AttackScenario::new(sealed, ModelKind::SqueezeNet)
            .with_corrupted_input()
            .with_seed(19)
            .execute()
            .unwrap();
        assert_eq!(closed.residue_lifetime().swap_resident_bytes, 0);
        assert!(!closed.model_identification_correct());
        assert_eq!(closed.pixel_recovery_rate(), 0.0);

        // Same seed replays the swap-assisted recovery exactly.
        let replay = scenario.execute().unwrap();
        assert_eq!(outcome.metrics(), replay.metrics());
    }

    #[test]
    fn churn_scrape_handles_zero_and_sub_page_windows() {
        use crate::translate::HeapTranslation;
        use zynq_mmu::VirtAddr;

        let scenario = AttackScenario::new(BoardConfig::tiny_for_tests(), ModelKind::SqueezeNet)
            .with_schedule(VictimSchedule::LiveTraffic {
                tenants: 1,
                churn_rate: 1,
            })
            .with_seed(23);
        let mut booted = scenario.boot().unwrap();
        let victim = booted.launch_victim().unwrap();
        victim.terminate(&mut booted.kernel).unwrap();
        let mut debugger = DebugSession::connect(UserId::new(1));
        let base = booted.kernel.config().dram().base();

        // Degenerate windows cannot be produced through the live capture
        // (the kernel page-aligns heaps and the debugger rejects heap-less
        // processes), so the translations are assembled directly — exactly
        // what a replayed or corrupted observation can hand the scraper.
        for len in [0u64, 1, PAGE_SIZE - 1] {
            let pages = if len == 0 { vec![] } else { vec![Some(base)] };
            let translation = HeapTranslation::from_parts(
                Pid::new(9999),
                VirtAddr::new(0x2000),
                VirtAddr::new(0x2000 + len),
                pages,
            );
            let observation = Observation::from_translation(translation);
            let mut lifetime = ResidueLifetime::default();
            let mut reclaimed = BTreeSet::new();
            let dump = booted
                .scrape_with_churn(
                    &mut debugger,
                    &observation,
                    1,
                    &BTreeSet::new(),
                    &mut lifetime,
                    &mut reclaimed,
                )
                .unwrap();
            let outcome = booted
                .pipeline
                .score_dump(&observation, &dump, Duration::ZERO);
            // A typed, correctly sized outcome at every width — never a
            // `TranslationEmpty` error, never a page-rounded dump.
            assert_eq!(outcome.bytes_scraped, len as usize, "len={len}");
            if len == 0 {
                assert_eq!(outcome.dump_coverage, 0.0);
                assert_eq!(lifetime.churn_events, 0);
                assert!(outcome.identified.is_none());
            }
        }
    }

    #[test]
    fn live_traffic_multi_snapshot_takes_real_snapshots_and_replays() {
        use zynq_dram::RemanenceModel;
        let board = BoardConfig::tiny_for_tests()
            .with_remanence(RemanenceModel::Exponential { half_life_ticks: 4 });
        let at_mode = |mode| {
            AttackScenario::new(board, ModelKind::SqueezeNet)
                .with_corrupted_input()
                .with_attack_config(AttackConfig {
                    scrape_mode: mode,
                    victim_pattern: Some("squeezenet".to_string()),
                    ..AttackConfig::default()
                })
                .with_schedule(VictimSchedule::LiveTraffic {
                    tenants: 1,
                    churn_rate: 0,
                })
                .with_seed(31)
                .execute()
                .unwrap()
        };
        let single = at_mode(ScrapeMode::ContiguousRange);
        let fused = at_mode(ScrapeMode::MultiSnapshot { snapshots: 3 });

        // Under monotone decay the OR-fusion of later snapshots adds nothing
        // to the churned first pass, so the fused recovery equals the
        // single-pass attacker byte for byte at the same seed…
        assert_eq!(fused.bytes_scraped(), single.bytes_scraped());
        assert_eq!(fused.pixel_recovery_rate(), single.pixel_recovery_rate());
        // …but the snapshots really happened: the two extra reads each
        // advanced the decay clock one tick past the single-pass run, which
        // shows up in the end-of-attack residue fidelity.
        assert!(
            fused.residue_lifetime().residue_bits_flipped
                >= single.residue_lifetime().residue_bits_flipped
        );
        assert!(fused.residue_lifetime().residue_bits_flipped > 0);

        // Snapshot ticks are pinned to the scrape sequence, never the wall
        // clock: replays are exact.
        let replay = at_mode(ScrapeMode::MultiSnapshot { snapshots: 3 });
        assert_eq!(fused.metrics(), replay.metrics());
    }

    #[test]
    fn live_traffic_churn_decays_scrape_coverage() {
        let at_churn = |churn_rate| {
            AttackScenario::new(BoardConfig::tiny_for_tests(), ModelKind::SqueezeNet)
                .with_corrupted_input()
                .with_schedule(VictimSchedule::LiveTraffic {
                    tenants: 2,
                    churn_rate,
                })
                .with_seed(3)
                .execute()
                .unwrap()
        };

        let calm = at_churn(0);
        assert_eq!(calm.residue_lifetime().churn_events, 0);
        assert_eq!(calm.residue_lifetime().frames_lost_before_scrape, 0);
        assert!(calm.model_identification_correct());
        assert!(calm.pixel_recovery_rate() > 0.99);

        let stormy = at_churn(4);
        let lifetime = stormy.residue_lifetime();
        assert!(lifetime.churn_events > 0);
        // Live churn re-allocated victim frames mid-scrape: residue decayed.
        assert!(lifetime.frames_lost_before_scrape > 0);
        assert!(lifetime.survival_rate() < 1.0);
        assert!(stormy.pixel_recovery_rate() < calm.pixel_recovery_rate());

        // Tenants keep running during the attack and report their health.
        assert!(stormy.active_tenant_intact().is_some());

        // Churn is sequenced by the seed, not the wall clock: replays match.
        let replay = at_churn(4);
        assert_eq!(stormy.metrics(), replay.metrics());
    }

    #[test]
    fn churn_free_scrape_matches_the_pipeline_scraper_byte_for_byte() {
        // Anti-drift pin for the duplicated edge semantics: on the same
        // terminated board, `scrape_with_churn` at churn 0 must produce the
        // identical attack outcome (minus wall-clock) as the one-shot
        // `AttackPipeline::execute` path, in both scrape modes.
        for mode in [ScrapeMode::ContiguousRange, ScrapeMode::PerPage] {
            let scenario =
                AttackScenario::new(BoardConfig::tiny_for_tests(), ModelKind::SqueezeNet)
                    .with_corrupted_input()
                    .with_attack_config(AttackConfig {
                        scrape_mode: mode,
                        victim_pattern: Some("squeezenet".to_string()),
                        ..AttackConfig::default()
                    })
                    .with_seed(13);
            let mut booted = scenario.boot().unwrap();
            let victim = booted.launch_victim().unwrap();
            let mut debugger = DebugSession::connect(UserId::new(1));
            let observation = booted
                .pipeline
                .poll_and_observe(&mut debugger, &booted.kernel)
                .unwrap();
            victim.terminate(&mut booted.kernel).unwrap();

            let via_pipeline = booted
                .pipeline
                .execute(&mut debugger, &booted.kernel, &observation)
                .unwrap();

            let mut lifetime = ResidueLifetime::default();
            let mut reclaimed = std::collections::BTreeSet::new();
            let dump = booted
                .scrape_with_churn(
                    &mut debugger,
                    &observation,
                    0,
                    &std::collections::BTreeSet::new(),
                    &mut lifetime,
                    &mut reclaimed,
                )
                .unwrap();
            let via_churn_path = booted
                .pipeline
                .score_dump(&observation, &dump, Duration::ZERO);

            assert_eq!(via_pipeline.identified, via_churn_path.identified, "{mode}");
            assert_eq!(via_pipeline.marker_runs, via_churn_path.marker_runs);
            assert_eq!(
                via_pipeline.reconstructed_image,
                via_churn_path.reconstructed_image
            );
            assert_eq!(
                via_pipeline.image_offset_used,
                via_churn_path.image_offset_used
            );
            assert_eq!(via_pipeline.bytes_scraped, via_churn_path.bytes_scraped);
            assert_eq!(via_pipeline.dump_coverage, via_churn_path.dump_coverage);
            assert_eq!(lifetime.churn_events, 0);
        }
    }

    #[test]
    fn zero_snapshot_mode_fails_under_live_traffic_too() {
        // The churn scraper ignores the snapshot count (it reads page
        // chunks), but an invalid zero-snapshot mode must fail here exactly
        // like it does on the single-sweep path — not silently succeed.
        let result = AttackScenario::new(BoardConfig::tiny_for_tests(), ModelKind::SqueezeNet)
            .with_attack_config(AttackConfig {
                scrape_mode: ScrapeMode::MultiSnapshot { snapshots: 0 },
                ..AttackConfig::default()
            })
            .with_schedule(VictimSchedule::LiveTraffic {
                tenants: 1,
                churn_rate: 1,
            })
            .execute();
        let err = result.unwrap_err();
        assert!(err.to_string().contains("zero snapshots"), "{err}");
    }

    #[test]
    fn remanence_decay_degrades_recovery_and_replays_by_seed() {
        use zynq_dram::RemanenceModel;
        let at = |model: RemanenceModel| {
            AttackScenario::new(
                BoardConfig::tiny_for_tests().with_remanence(model),
                ModelKind::SqueezeNet,
            )
            .with_corrupted_input()
            .with_seed(21)
            .execute()
            .unwrap()
        };

        // The perfect model is today's all-or-nothing residue: nothing flips.
        let perfect = at(RemanenceModel::Perfect);
        assert_eq!(perfect.residue_lifetime().residue_bits_flipped, 0);
        assert_eq!(perfect.metrics().residue_bits_flipped, 0);
        assert_eq!(perfect.residue_lifetime().decayed_recovery_rate(), 1.0);
        assert!(perfect.pixel_recovery_rate() > 0.99);

        // A short half-life loses real residue between termination and the
        // scrape, and the loss shows up in the recovered image.
        let decayed = at(RemanenceModel::Exponential { half_life_ticks: 2 });
        let lifetime = decayed.residue_lifetime();
        assert!(lifetime.residue_bytes_raw > 0);
        assert!(lifetime.residue_bytes_decayed > 0);
        assert!(lifetime.residue_bits_flipped > 0);
        assert!(lifetime.decayed_recovery_rate() < 1.0);
        assert_eq!(
            decayed.metrics().residue_bits_flipped,
            lifetime.residue_bits_flipped
        );
        assert!(decayed.pixel_recovery_rate() < perfect.pixel_recovery_rate());

        // Decay is seeded from the scenario seed: the same cell replays
        // bit-exactly, a different seed decays different cells.
        let replay = at(RemanenceModel::Exponential { half_life_ticks: 2 });
        assert_eq!(decayed.metrics(), replay.metrics());
        let reseeded = AttackScenario::new(
            BoardConfig::tiny_for_tests()
                .with_remanence(RemanenceModel::Exponential { half_life_ticks: 2 }),
            ModelKind::SqueezeNet,
        )
        .with_corrupted_input()
        .with_seed(22)
        .execute()
        .unwrap();
        assert_ne!(
            reseeded.residue_lifetime().residue_bits_flipped,
            lifetime.residue_bits_flipped
        );
    }

    /// A multi-snapshot attack counts the victim's residue fidelity from its
    /// last snapshot; the counts must equal a full decay sweep at the same
    /// tick.  Under a randomized layout the contiguous read misses victim
    /// frames, which are then swept on their own.
    #[test]
    fn residue_fidelity_from_the_last_snapshot_matches_a_full_sweep() {
        use zynq_dram::RemanenceModel;
        use zynq_mmu::AllocationOrder;
        for order in [
            AllocationOrder::Sequential,
            AllocationOrder::Randomized { seed: 5 },
        ] {
            for remanence in [
                RemanenceModel::Exponential { half_life_ticks: 4 },
                RemanenceModel::BitFlip { rate_ppm: 120_000 },
            ] {
                let board = BoardConfig::tiny_for_tests()
                    .with_remanence(remanence)
                    .with_allocation_order(order);
                let scenario = AttackScenario::new(board, ModelKind::SqueezeNet)
                    .with_corrupted_input()
                    .with_attack_config(AttackConfig {
                        scrape_mode: ScrapeMode::MultiSnapshot { snapshots: 3 },
                        ..AttackConfig::default()
                    })
                    .with_seed(17);
                let mut booted = scenario.boot().unwrap();
                let victim = booted.launch_victim().unwrap();
                let victim_tag = victim.pid().owner_tag();
                let layout = victim.layout();
                let heap_base = booted.kernel.process(victim.pid()).unwrap().heap_base();
                let start = booted
                    .kernel
                    .process(victim.pid())
                    .unwrap()
                    .address_space()
                    .translate(heap_base)
                    .unwrap();
                let outcome = booted.run_attack(victim).unwrap();
                let missed = booted
                    .kernel
                    .dram()
                    .residue_frames()
                    .filter(|(frame, owner)| {
                        let addr = frame.base_address();
                        *owner == victim_tag
                            && (addr < start || addr.offset_from(start) >= layout.heap_len)
                    })
                    .count();
                let case = format!("{order} {remanence}");
                match order {
                    AllocationOrder::Sequential => assert_eq!(missed, 0, "{case}"),
                    _ => assert!(missed > 0, "{case}: the read covers every frame"),
                }
                let swept = booted.kernel.dram().residue_decay(Some(victim_tag));
                let lifetime = outcome.residue_lifetime();
                assert!(lifetime.residue_bits_flipped > 0, "{case}");
                assert_eq!(lifetime.residue_bytes_raw, swept.raw_bytes, "{case}");
                assert_eq!(
                    lifetime.residue_bytes_decayed,
                    swept.raw_bytes - swept.surviving_bytes,
                    "{case}"
                );
                assert_eq!(lifetime.residue_bits_flipped, swept.bits_flipped, "{case}");
            }
        }
    }

    #[test]
    fn remanence_decay_composes_with_revival_and_live_traffic() {
        use zynq_dram::RemanenceModel;
        let base = BoardConfig::tiny_for_tests()
            .with_remanence(RemanenceModel::BitFlip { rate_ppm: 120_000 });

        // Revival successors advance the logical clock, so the late-arriving
        // attacker sees further-decayed residue.
        let revival = AttackScenario::new(base, ModelKind::SqueezeNet)
            .with_corrupted_input()
            .with_schedule(VictimSchedule::Revival {
                successors: 1,
                reuse_pid: true,
            })
            .with_seed(5)
            .execute()
            .unwrap();
        assert!(revival.residue_lifetime().residue_bits_flipped > 0);

        // Chunked live-traffic scrapes tick the decay clock between chunks.
        let live = AttackScenario::new(base, ModelKind::SqueezeNet)
            .with_corrupted_input()
            .with_schedule(VictimSchedule::LiveTraffic {
                tenants: 1,
                churn_rate: 0,
            })
            .with_seed(5)
            .execute()
            .unwrap();
        assert!(live.residue_lifetime().residue_bits_flipped > 0);
        // Replays stay exact even with mid-scrape decay ticks.
        let replay = AttackScenario::new(base, ModelKind::SqueezeNet)
            .with_corrupted_input()
            .with_schedule(VictimSchedule::LiveTraffic {
                tenants: 1,
                churn_rate: 0,
            })
            .with_seed(5)
            .execute()
            .unwrap();
        assert_eq!(live.metrics(), replay.metrics());
    }

    #[test]
    fn live_traffic_keeps_co_tenants_and_poll_targets_the_victim() {
        let scenario = AttackScenario::new(BoardConfig::tiny_for_tests(), ModelKind::SqueezeNet)
            .with_schedule(VictimSchedule::LiveTraffic {
                tenants: 2,
                churn_rate: 1,
            })
            .with_seed(9);
        let booted = scenario.boot().unwrap();
        assert_eq!(booted.tenants().len(), 2);
        // The rotation never runs the victim's own model as a tenant.
        for tenant in booted.tenants() {
            assert_ne!(tenant.model(), ModelKind::SqueezeNet);
        }
        let outcome = booted.run().unwrap();
        // Polling still latched onto the victim, not a tenant.
        assert_eq!(outcome.ground_truth().model(), ModelKind::SqueezeNet);
    }

    /// Live traffic × multi-snapshot, pinned per cell: a digest of the fused
    /// dump, the debugger's audit trail, the scrub reports, the final clock,
    /// the residue-lifetime counters and the victim's residue fidelity after
    /// the churned scrape.  Background scrubs that come due inside the
    /// snapshot window are part of the matrix.
    #[test]
    fn live_traffic_multi_snapshot_scrapes_are_pinned() {
        use zynq_dram::RemanenceModel;
        fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
            bytes.iter().fold(hash, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
            })
        }
        let mut digests = Vec::new();
        for remanence in [
            RemanenceModel::Exponential { half_life_ticks: 4 },
            RemanenceModel::BitFlip { rate_ppm: 120_000 },
        ] {
            for policy in [
                SanitizePolicy::None,
                SanitizePolicy::Background { delay_ticks: 2 },
                SanitizePolicy::Background { delay_ticks: 4 },
            ] {
                for (snapshots, churn_rate) in [(1, 1), (2, 0), (3, 1), (5, 1)] {
                    let board = BoardConfig::tiny_for_tests()
                        .with_remanence(remanence)
                        .with_sanitize_policy(policy);
                    let mode = ScrapeMode::MultiSnapshot { snapshots };
                    let scenario = AttackScenario::new(board, ModelKind::SqueezeNet)
                        .with_corrupted_input()
                        .with_attack_config(AttackConfig {
                            scrape_mode: mode,
                            victim_pattern: Some("squeezenet".to_string()),
                            ..AttackConfig::default()
                        })
                        .with_schedule(VictimSchedule::LiveTraffic {
                            tenants: 1,
                            churn_rate,
                        })
                        .with_seed(31);
                    let mut booted = scenario.boot().unwrap();
                    let victim = booted.launch_victim().unwrap();
                    let mut debugger = DebugSession::connect(scenario.attacker_user);
                    let observation = booted
                        .pipeline
                        .poll_and_observe(&mut debugger, &booted.kernel)
                        .unwrap();
                    let victim_tag = victim.pid().owner_tag();
                    victim.terminate(&mut booted.kernel).unwrap();
                    let residue: BTreeSet<FrameNumber> = booted
                        .kernel
                        .dram()
                        .residue_frames()
                        .filter(|(_, owner)| *owner == victim_tag)
                        .map(|(frame, _)| frame)
                        .collect();
                    let mut lifetime = ResidueLifetime::default();
                    let mut reclaimed = BTreeSet::new();
                    let dump = booted
                        .scrape_with_churn(
                            &mut debugger,
                            &observation,
                            churn_rate,
                            &residue,
                            &mut lifetime,
                            &mut reclaimed,
                        )
                        .unwrap();
                    let state = format!(
                        "{:?}|{:?}|{}|{:?}|{:?}",
                        debugger.audit().records(),
                        booted.kernel.scrub_reports(),
                        booted.kernel.clock(),
                        lifetime,
                        booted.kernel.dram().residue_decay(Some(victim_tag)),
                    );
                    let digest = fnv1a(0xCBF2_9CE4_8422_2325, dump.as_bytes());
                    digests.push(fnv1a(digest, state.as_bytes()));
                }
            }
        }
        assert_eq!(
            digests,
            [
                0xB5A1_B5B0_6027_5ECA,
                0xA541_5016_1CC7_4A0A,
                0xDB6A_01EE_EE38_F476,
                0xAE0B_D09F_F38E_DE61,
                0x5F9A_AEEA_653B_39AF,
                0xB70F_FCD9_C185_67C5,
                0x6A9B_EE26_35C8_1895,
                0xC084_8598_1F13_971E,
                0x6B49_9558_8764_8742,
                0x785C_4793_5C3A_0B53,
                0xEE45_B5B1_AAE1_870C,
                0x6785_73E2_3000_9F17,
                0x6153_75E1_58E4_9CC9,
                0x7BFA_AEBE_3892_DFB7,
                0x0F17_F100_6E21_2214,
                0x07CB_695F_FCF2_73EF,
                0xAE53_7AE2_E703_56EB,
                0x4BBC_7E1E_56BE_4076,
                0xF2DC_88C9_14B4_8AF9,
                0x7B17_A67E_4086_D7E2,
                0x7D0B_4FE3_BAEC_7D74,
                0x3920_9997_4A70_9677,
                0x7C17_BFC8_2E33_3DAA,
                0xA1A4_F87A_A091_2E7D,
            ]
        );
    }
}
