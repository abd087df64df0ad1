//! The traced run: spans recorded from the benchmark's own code around each
//! call into a layer's public functions (nothing is added inside the
//! program), and the decomposed replays that make those calls.
//!
//! - [`replay_single`] decomposes a single-schedule cell into the pipeline's
//!   public steps and checks that the decomposition reproduces
//!   `AttackPipeline::analyze_view` on the same view and
//!   `AttackPipeline::execute_mut` on a clone of the same kernel state.
//! - [`replay_schedule`] times a schedule cell (revival, churn, forks,
//!   predecessor traffic) around `AttackScenario::boot`,
//!   `BootedScenario::launch_victim` and `BootedScenario::run_attack`, and
//!   splits the attack with the `StepTimings` the outcome carries.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use msa_core::analysis::image::{reconstruct_image_view, recovery_rate};
use msa_core::analysis::marker::{marker_runs_view, CORRUPTED_MARKER};
use msa_core::analysis::reconstruct::{entropy_image_offset, fuzzy_identify_view, repair_image};
use msa_core::analysis::strings::identify_model_view;
use msa_core::attack::{AttackConfig, AttackPipeline, ScrapeMode};
use msa_core::campaign::{CampaignCell, CellRecord};
use msa_core::dump::{HeapView, MemoryDump};
use msa_core::metrics::OffsetSource;
use msa_core::profile::ProfileDatabase;
use msa_core::scenario::{ScenarioMetrics, ScenarioResult, VictimSchedule};
use msa_core::scrape::{scrape_heap, scrape_heap_snapshots, scrape_heap_view};
use msa_core::signature::{ModelMatch, SignatureDb};
use msa_core::AttackError;
use petalinux_sim::{Kernel, UserId};
use vitis_ai_sim::{DpuRunner, ModelKind, RunnerError};
use xsdb::DebugSession;
use zynq_dram::ScrapeView;

/// `AttackScenario`'s default victim and attacker users.
const VICTIM: UserId = UserId::new(0);
const ATTACKER: UserId = UserId::new(1);

pub const BOOT: &str = "petalinux.boot";
pub const SIGNATURES: &str = "signature.standard";
pub const LAUNCH: &str = "vitis.launch";
pub const POLL: &str = "debugger.poll";
pub const TRANSLATE: &str = "core.translate";
pub const TERMINATE: &str = "petalinux.terminate";
pub const SCRUB: &str = "dram.scrub";
pub const SCRAPE: &str = "core.scrape";
pub const READ_PERFECT: &str = "dram.read_perfect";
pub const READ_DECAYED: &str = "dram.read_decayed";
pub const SWAP_OVERLAY: &str = "dram.swap_overlay";
pub const IDENTIFY: &str = "analysis.identify";
pub const FUZZY: &str = "analysis.fuzzy_identify";
pub const MARKER: &str = "analysis.marker";
pub const ENTROPY: &str = "analysis.entropy";
pub const IMAGE: &str = "analysis.image";
pub const REPAIR: &str = "analysis.repair";
pub const LIFECYCLE: &str = "scenario.lifecycle";
/// Step 4 as a whole (the stages above on decomposed cells, the outcome's
/// `StepTimings::analyze` on schedule cells).
pub const ANALYZE: &str = "attack.analyze";

/// The layers a schedule cell's single-schedule probe contributes: the ones
/// `run_attack` runs with no public per-step entry.
const PROBE_LAYERS: [&str; 4] = [SIGNATURES, TERMINATE, SCRUB, SWAP_OVERLAY];

/// Spans of one layer: per-call durations plus the bytes or items each call
/// handled.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    /// Per-call durations, ms.
    pub samples_ms: Vec<f64>,
    /// Sum of durations, s.
    pub busy_s: f64,
    /// Bytes (or items) handled, summed over calls.
    pub volume: f64,
    /// Calls that found what they looked for.
    pub hits: u64,
}

impl Layer {
    /// Calls recorded.
    pub fn calls(&self) -> usize {
        self.samples_ms.len()
    }

    /// Median call duration, ms.
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.samples_ms)
    }

    /// Volume per busy second, in MiB/s.
    pub fn mib_per_s(&self) -> f64 {
        crate::stats::ratio(self.volume / MIB, self.busy_s)
    }
}

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// In-memory span store of one traced run.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    layers: BTreeMap<&'static str, Layer>,
}

impl Spans {
    /// Records one call of `layer` that took `elapsed` and handled `volume`.
    pub fn record(&mut self, layer: &'static str, elapsed: Duration, volume: f64) {
        let entry = self.layers.entry(layer).or_default();
        entry.samples_ms.push(elapsed.as_secs_f64() * 1e3);
        entry.busy_s += elapsed.as_secs_f64();
        entry.volume += volume;
    }

    /// Adds `volume` to `layer` without recording a call.
    pub fn add_volume(&mut self, layer: &'static str, volume: f64) {
        self.layers.entry(layer).or_default().volume += volume;
    }

    /// Marks the last recorded call of `layer` as a hit.
    pub fn hit(&mut self, layer: &'static str) {
        self.layers.entry(layer).or_default().hits += 1;
    }

    /// The spans of `layer` (empty when it was never called).
    pub fn layer(&self, layer: &str) -> Layer {
        self.layers.get(layer).cloned().unwrap_or_default()
    }

    /// Moves `other`'s spans of `layers` into this store.
    fn absorb(&mut self, other: Spans, layers: &[&'static str]) {
        for (name, layer) in other.layers {
            if !layers.contains(&name) {
                continue;
            }
            let entry = self.layers.entry(name).or_default();
            entry.samples_ms.extend(layer.samples_ms);
            entry.busy_s += layer.busy_s;
            entry.volume += layer.volume;
            entry.hits += layer.hits;
        }
    }
}

/// Runs `f`, returning its result and how long it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed())
}

/// The scenario seed mixer (splitmix64), as `AttackScenario::boot` applies
/// it to derive the board's remanence seed from the cell seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn runner_error(e: RunnerError) -> AttackError {
    match e {
        RunnerError::Kernel(k) => AttackError::Channel(k),
    }
}

/// The attack configuration a cell runs under (as `CampaignCell::scenario`
/// derives it).
fn cell_config(cell: &CampaignCell, base: &AttackConfig) -> AttackConfig {
    AttackConfig {
        scrape_mode: cell.scrape_mode,
        reconstruct: cell.reconstruct.unwrap_or(base.reconstruct),
        ..base.clone()
    }
}

/// What a decomposed replay recovered, and how long its traced steps took.
#[derive(Debug)]
pub struct Replay {
    /// The identified model.
    pub identified: Option<ModelKind>,
    /// Fraction of the victim's pixels recovered.
    pub pixel_recovery: f64,
    /// Wall time of the traced steps (excludes the faithfulness checks).
    pub elapsed: Duration,
    /// Faithfulness violations found by the checks.
    pub mismatches: Vec<String>,
}

/// The scraped heap: borrowed from the bank arenas or owned.
enum Scraped<'k> {
    View(HeapView<'k>),
    Dump(MemoryDump),
}

/// The analysis result of the decomposed Step 4.
struct Stages {
    identified: Option<ModelMatch>,
    marker_runs: Vec<msa_core::analysis::marker::MarkerRun>,
    image: Option<vitis_ai_sim::Image>,
    offset: Option<OffsetSource>,
}

/// Replays a single-schedule cell through the pipeline's public steps,
/// recording a span around each, then checks the result against the
/// pipeline's own entry points on the same state.
///
/// # Errors
///
/// Propagates the first step error (none occur on the benchmark's
/// workloads).
pub fn replay_single(
    cell: &CampaignCell,
    profiles: &ProfileDatabase,
    signatures: &SignatureDb,
    base: &AttackConfig,
    spans: &mut Spans,
) -> Result<Replay, AttackError> {
    let started = Instant::now();
    let config = cell_config(cell, base);
    let (pipeline, d) =
        timed(|| AttackPipeline::new(config.clone()).with_profiles(profiles.clone()));
    spans.record(SIGNATURES, d, 0.0);

    let (mut kernel, d) = timed(|| {
        let mut kernel = Kernel::boot(cell.board);
        kernel.set_remanence_seed(splitmix64(cell.seed ^ 0x6B5F_0D7A));
        kernel
    });
    spans.record(BOOT, d, 0.0);

    let (victim, d) = timed(|| {
        DpuRunner::new(cell.model)
            .with_input(cell.input.materialize(cell.model))
            .launch(&mut kernel, VICTIM)
    });
    spans.record(LAUNCH, d, 0.0);
    let victim = victim.map_err(runner_error)?;

    let mut debugger = DebugSession::connect(ATTACKER);
    let (pid, poll) = timed(|| pipeline.poll_for_victim(&mut debugger, &kernel));
    spans.record(POLL, poll, 0.0);
    let (observation, translate) = timed(|| pipeline.observe_victim(&mut debugger, &kernel, pid?));
    let observation = observation?;
    let translation = observation.translation();
    let heap_len = translation.heap_len();
    spans.record(TRANSLATE, translate, heap_len as f64);

    let (truth, d) = timed(|| victim.terminate(&mut kernel));
    let truth = truth.map_err(runner_error)?;
    spans.add_volume(LAUNCH, kernel.processes().count() as f64);
    let scrubbed = kernel
        .scrub_reports()
        .last()
        .map_or(0, |r| r.bytes_scrubbed) as f64;
    spans.record(TERMINATE, d, scrubbed);
    if scrubbed > 0.0 {
        spans.record(SCRUB, d, scrubbed);
    }

    // The reference state for the execute_mut check (not timed).
    let clone_started = Instant::now();
    let mut twin = kernel.clone();
    let clone_time = clone_started.elapsed();

    // Step 3, as `execute_mut` routes it.
    let owner = observation.pid().owner_tag();
    let has_swap = kernel.dram().swap_store().residue_bytes(Some(owner)) > 0;
    let read_layer = if cell.remanence.is_perfect() {
        READ_PERFECT
    } else {
        READ_DECAYED
    };
    let scrape_started = Instant::now();
    if debugger.is_running(&kernel, observation.pid()) {
        return Err(AttackError::VictimStillRunning {
            pid: observation.pid(),
        });
    }
    let (mut scraped, read_bytes) = match config.scrape_mode {
        ScrapeMode::MultiSnapshot { snapshots } => {
            let scrape = scrape_heap_snapshots(&mut debugger, &mut kernel, translation, snapshots)?;
            let read: usize = scrape.snapshots.iter().map(Vec::len).sum();
            (Scraped::Dump(scrape.dump), read as f64)
        }
        mode if has_swap => (
            Scraped::Dump(scrape_heap(&mut debugger, &kernel, translation, mode)?),
            heap_len as f64,
        ),
        mode => match scrape_heap_view(&mut debugger, &kernel, translation, mode)? {
            Some(view) => (Scraped::View(view), heap_len as f64),
            None => (
                Scraped::Dump(scrape_heap(&mut debugger, &kernel, translation, mode)?),
                heap_len as f64,
            ),
        },
    };
    let scrape = scrape_started.elapsed();
    spans.record(SCRAPE, scrape, heap_len as f64);
    spans.record(read_layer, scrape, read_bytes);

    let mut overlay = Duration::ZERO;
    if let (true, Scraped::Dump(dump)) = (has_swap, &mut scraped) {
        let (filled, d) = timed(|| pipeline.read_swap_residue(&kernel, &observation, dump));
        spans.record(SWAP_OVERLAY, d, filled as f64);
        overlay = d;
    }

    // Step 4, stage by stage, as `analyze_view` composes it.
    let owned_view;
    let view: &ScrapeView<'_> = match &scraped {
        Scraped::View(heap) => heap.view(),
        Scraped::Dump(dump) => {
            owned_view = dump.as_view();
            &owned_view
        }
    };
    let (stages, analyze) = timed(|| analyze_stages(view, &pipeline, signatures, &config, spans));
    spans.record(ANALYZE, analyze, 0.0);
    let pixel_recovery = recovery_rate(stages.image.as_ref(), truth.input_image());
    let elapsed = started.elapsed() - clone_time;
    let attack = poll + translate + scrape + overlay + analyze;
    spans.record(LIFECYCLE, elapsed.saturating_sub(attack), 0.0);

    // Faithfulness: the decomposition must reproduce the pipeline's own
    // analysis of this view and its own scrape-and-analyse of this state.
    let reference = pipeline.analyze_view(view);
    let outcome = pipeline.execute_mut(
        &mut DebugSession::connect(ATTACKER),
        &mut twin,
        &observation,
    )?;
    let checks = [
        (
            "analyze_view identification",
            reference.identified == stages.identified,
        ),
        (
            "analyze_view marker runs",
            reference.marker_runs == stages.marker_runs,
        ),
        (
            "analyze_view image",
            reference.reconstructed_image == stages.image
                && reference.image_offset_used == stages.offset,
        ),
        (
            "execute_mut identification",
            outcome.identified == stages.identified,
        ),
        (
            "execute_mut marker runs",
            outcome.marker_runs == stages.marker_runs,
        ),
        (
            "execute_mut image (swap overlay included)",
            outcome.reconstructed_image == stages.image
                && outcome.image_offset_used == stages.offset,
        ),
        (
            "execute_mut bytes scraped",
            outcome.bytes_scraped == view.len(),
        ),
    ];
    let mismatches = checks
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(what, _)| format!("{}: {what} differs", cell.label()))
        .collect();

    Ok(Replay {
        identified: stages.identified.map(|m| m.model),
        pixel_recovery,
        elapsed,
        mismatches,
    })
}

/// `AttackPipeline::analyze_view`, one public analysis function at a time.
fn analyze_stages(
    view: &ScrapeView<'_>,
    pipeline: &AttackPipeline,
    signatures: &SignatureDb,
    config: &AttackConfig,
    spans: &mut Spans,
) -> Stages {
    let bytes = view.len() as f64;
    let usable = |m: &ModelMatch| m.confidence() >= config.min_identification_confidence;

    let (mut identified, d) = timed(|| identify_model_view(view, signatures));
    spans.record(IDENTIFY, d, bytes);
    if identified.is_some() {
        spans.hit(IDENTIFY);
    }
    if config.reconstruct && !identified.as_ref().is_some_and(usable) {
        let (fuzzy, d) = timed(|| fuzzy_identify_view(view, signatures));
        spans.record(FUZZY, d, bytes);
        identified = fuzzy.filter(usable).or(identified);
    }
    let (marker_runs, d) =
        timed(|| marker_runs_view(view, CORRUPTED_MARKER, config.marker_min_run));
    spans.record(MARKER, d, bytes);

    let mut offset = None;
    let mut image = None;
    if let Some(matched) = identified.as_ref().filter(|m| usable(m)) {
        if matched.model.accepts_image_input() {
            if let Some(profile) = pipeline.profiles().profile(matched.model) {
                offset = Some(OffsetSource::Profile {
                    offset: profile.image_offset,
                });
            } else if let Some(run) = marker_runs.first() {
                offset = Some(OffsetSource::Marker { offset: run.offset });
            } else if config.reconstruct {
                let (w, h) = matched.model.input_dims();
                let (found, d) = timed(|| entropy_image_offset(view, (w * h * 3) as usize));
                spans.record(ENTROPY, d, bytes);
                offset = found.map(|offset| OffsetSource::Entropy { offset });
            }
            if let Some(source) = offset {
                let (rebuilt, d) =
                    timed(|| reconstruct_image_view(view, matched.model, source.offset()));
                spans.record(IMAGE, d, 0.0);
                image = rebuilt;
            }
            if config.reconstruct {
                image = image.map(|rebuilt| {
                    let (repaired, d) = timed(|| repair_image(&rebuilt));
                    spans.record(REPAIR, d, 0.0);
                    repaired
                });
            }
        }
    }
    Stages {
        identified,
        marker_runs,
        image,
        offset,
    }
}

/// Traces a schedule cell around the scenario's public stages, plus its
/// single-schedule probe for the layers inside `run_attack`.
///
/// Returns the cell's record (checked against the pins by the caller), the
/// traced wall time, and the probe's faithfulness violations.
///
/// # Errors
///
/// Propagates the first stage error (none occur on the benchmark's
/// workloads).
pub fn replay_schedule(
    cell: &CampaignCell,
    profiles: &ProfileDatabase,
    signatures: &SignatureDb,
    base: &AttackConfig,
    spans: &mut Spans,
) -> Result<(CellRecord, Duration, Vec<String>), AttackError> {
    let started = Instant::now();
    let scenario = cell.scenario(profiles.clone(), base);
    let (booted, d) = timed(|| scenario.boot());
    spans.record(BOOT, d, 0.0);
    let mut booted = booted?;
    let (victim, d) = timed(|| booted.launch_victim());
    spans.record(LAUNCH, d, 0.0);
    let outcome = booted.run_attack(victim?)?;
    let elapsed = started.elapsed();
    spans.add_volume(LAUNCH, booted.kernel().processes().count() as f64);

    // Terminate, scrub and swap overlay run inside `run_attack` with no
    // public per-step entry: measure them on the cell's single-schedule
    // twin (same board, sanitizer, swap pressure, model and seed).
    let mut probe_cell = cell.clone();
    probe_cell.schedule = VictimSchedule::Single;
    let mut probe_spans = Spans::default();
    let probe = replay_single(&probe_cell, profiles, signatures, base, &mut probe_spans)?;

    // Live traffic runs its churn events between the scrape's page chunks,
    // so of that scrape step only the twin's scrape time is reading; the
    // rest is lifecycle work.
    let steps = outcome.attack().timings;
    let scrape = match cell.schedule {
        VictimSchedule::LiveTraffic { .. } => steps
            .scrape
            .min(Duration::from_secs_f64(probe_spans.layer(SCRAPE).busy_s)),
        _ => steps.scrape,
    };
    spans.absorb(probe_spans, &PROBE_LAYERS);
    let heap = outcome.bytes_scraped() as f64;
    spans.record(POLL, steps.poll, 0.0);
    spans.record(TRANSLATE, steps.translate, heap);
    spans.record(SCRAPE, scrape, heap);
    spans.record(ANALYZE, steps.analyze, heap);
    let attack = steps.total() - steps.scrape + scrape;
    spans.record(LIFECYCLE, elapsed.saturating_sub(attack), 0.0);

    let record = CellRecord {
        cell: cell.clone(),
        result: ScenarioResult::Completed,
        metrics: Some(outcome.metrics()),
        timings: Some(steps),
        elapsed,
    };
    Ok((record, elapsed, probe.mismatches))
}

/// Checks a replay against the end-to-end record of the same cell.
pub fn matches_record(replay: &Replay, metrics: Option<&ScenarioMetrics>) -> bool {
    metrics.is_some_and(|m| {
        m.identified_model == replay.identified && m.pixel_recovery == replay.pixel_recovery
    })
}

/// The shares each workload was chosen for, from one traced run:
/// identification and the decay path over attack time, and analysis and
/// lifecycle work over the traced cells' wall time `traced_s`.
pub fn shares(spans: &Spans, traced_s: f64) -> [(&'static str, f64); 4] {
    let busy = |layers: &[&str]| -> f64 { layers.iter().map(|l| spans.layer(l).busy_s).sum() };
    let attack = busy(&[POLL, TRANSLATE, SCRAPE, SWAP_OVERLAY, ANALYZE]);
    [
        (
            "identify_share_of_attack",
            crate::stats::ratio(busy(&[IDENTIFY]), attack),
        ),
        (
            "decay_share_of_attack",
            crate::stats::ratio(busy(&[READ_DECAYED, FUZZY, ENTROPY, REPAIR]), attack),
        ),
        (
            "analysis_share_of_cell",
            crate::stats::ratio(busy(&[ANALYZE]), traced_s),
        ),
        (
            "lifecycle_share_of_cell",
            crate::stats::ratio(busy(&[LIFECYCLE]), traced_s),
        ),
    ]
}
