//! The attack pipeline: the paper's four steps as a composable API.

use std::time::{Duration, Instant};

use petalinux_sim::{Kernel, Pid};
use vitis_ai_sim::ModelKind;
use xsdb::DebugSession;

use zynq_dram::{PhysAddr, ScrapeView};

use crate::analysis::image::reconstruct_image_view;
use crate::analysis::marker::{marker_runs_view, CORRUPTED_MARKER};
use crate::analysis::reconstruct::{entropy_image_offset, fuzzy_identify_view, repair_image};
use crate::analysis::strings::identify_model_view;
use crate::dump::{HeapView, MemoryDump};
use crate::error::AttackError;
use crate::metrics::{AttackOutcome, OffsetSource, StepTimingsBuilder};
use crate::profile::ProfileDatabase;
use crate::scrape::{scrape_heap, scrape_heap_snapshots, scrape_heap_view, SnapshotScrape};
use crate::signature::SignatureDb;
use crate::translate::{capture_heap_translation, HeapTranslation};

/// How physical memory is read during scraping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[derive(Default)]
pub enum ScrapeMode {
    /// Translate only the heap endpoints and read the contiguous physical
    /// range between them (the paper's method; assumes a physically
    /// contiguous heap).
    #[default]
    ContiguousRange,
    /// Translate and read every heap page individually (a stronger attacker
    /// that survives physical-layout randomization).
    PerPage,
    /// The contiguous-range read repeated `snapshots` times across
    /// successive revival windows (one decay tick apart), with the snapshots
    /// OR-fused per bit ([`crate::analysis::reconstruct::fuse_snapshots`]).
    ///
    /// Because the shipped decay models only ever clear bits, the fused dump
    /// is a bitwise superset of every individual snapshot and a subset of
    /// the raw residue — the accumulation-across-reads attacker Pentimento
    /// describes.  Requires a mutable kernel to tick the clock between
    /// snapshots ([`AttackPipeline::execute_mut`]); on the immutable
    /// entry points it soundly degenerates to a single contiguous read (the
    /// fusion of snapshots under monotone decay equals the earliest one).
    MultiSnapshot {
        /// Number of snapshots fused (must be non-zero; 1 degenerates to
        /// the plain contiguous read).
        snapshots: usize,
    },
}

impl ScrapeMode {
    /// `true` for the strategies that read one contiguous physical range
    /// from the heap's endpoints (the paper's attacker and its multi-snapshot
    /// variant), `false` for the per-page attacker.
    pub fn reads_contiguous_range(self) -> bool {
        matches!(
            self,
            ScrapeMode::ContiguousRange | ScrapeMode::MultiSnapshot { .. }
        )
    }

    /// Rejects modes that are invalid by construction —
    /// [`ScrapeMode::MultiSnapshot`] with zero snapshots, which every scrape
    /// path refuses identically (the field is public, so specs can carry the
    /// invalid value past the builder asserts).
    ///
    /// # Errors
    ///
    /// Returns the same typed error the multi-snapshot read produces
    /// ([`zynq_dram::DramError::ZeroSnapshots`] wrapped as a channel error).
    pub fn validate(self) -> Result<(), crate::error::AttackError> {
        if matches!(self, ScrapeMode::MultiSnapshot { snapshots: 0 }) {
            return Err(crate::error::AttackError::Channel(
                petalinux_sim::KernelError::from(zynq_dram::DramError::ZeroSnapshots),
            ));
        }
        Ok(())
    }
}

impl std::fmt::Display for ScrapeMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScrapeMode::ContiguousRange => write!(f, "contiguous-range"),
            ScrapeMode::PerPage => write!(f, "per-page"),
            ScrapeMode::MultiSnapshot { snapshots } => write!(f, "multi-snapshot({snapshots})"),
        }
    }
}

/// Configuration of the attack pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackConfig {
    /// How to read physical memory in Step 3.
    pub scrape_mode: ScrapeMode,
    /// Command-line substring identifying the victim in Step 1.  When `None`,
    /// any process whose command line mentions a zoo model is targeted.
    pub victim_pattern: Option<String>,
    /// Minimum marker-run length (bytes) considered image evidence.
    pub marker_min_run: u64,
    /// Minimum identification confidence required before using a profile's
    /// image offset.
    pub min_identification_confidence: f64,
    /// Enables the decay-tolerant reconstruction layer
    /// ([`crate::analysis::reconstruct`]): fuzzy model identification when
    /// exact matching fails, entropy-guided image location when no profile
    /// or marker offset is usable, and neighbor repair of the reconstructed
    /// image before scoring.
    pub reconstruct: bool,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            scrape_mode: ScrapeMode::ContiguousRange,
            victim_pattern: None,
            marker_min_run: 256,
            min_identification_confidence: 0.3,
            reconstruct: false,
        }
    }
}

/// The state captured while the victim is still running (Steps 1–2): its pid,
/// its heap translation, and the partial timing record of those steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    translation: HeapTranslation,
    timings: StepTimingsBuilder,
}

impl Observation {
    /// Wraps an already-captured translation with a fresh (empty) timing
    /// record.
    ///
    /// The live path builds observations through
    /// [`AttackPipeline::observe_victim`]; this constructor exists for replay
    /// tooling and edge-case tests that assemble a [`HeapTranslation`]
    /// directly (e.g. via [`HeapTranslation::from_parts`]) — degenerate
    /// windows like a zero-length heap cannot be produced through the
    /// debugger capture, which requires a live `[heap]` mapping.
    pub fn from_translation(translation: HeapTranslation) -> Self {
        Observation {
            translation,
            timings: StepTimingsBuilder::new(),
        }
    }

    /// The victim's pid.
    pub fn pid(&self) -> Pid {
        self.translation.pid()
    }

    /// The captured heap translation.
    pub fn translation(&self) -> &HeapTranslation {
        &self.translation
    }

    /// The partial timing record (poll + translate stamped; scrape and
    /// analyze are added by [`AttackPipeline::execute`]).
    pub fn timings(&self) -> StepTimingsBuilder {
        self.timings
    }
}

/// Result of Step 4 alone (analysis of a dump), before being folded into an
/// [`AttackOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// The identification result.
    pub identified: Option<crate::signature::ModelMatch>,
    /// Corrupted-image marker runs found in the dump.
    pub marker_runs: Vec<crate::analysis::marker::MarkerRun>,
    /// The reconstructed image, if any.
    pub reconstructed_image: Option<vitis_ai_sim::Image>,
    /// Where the reconstruction offset came from.
    pub image_offset_used: Option<OffsetSource>,
}

/// The last read of a multi-snapshot scrape: its physical start address
/// and bytes.
pub(crate) type FinalRead = (PhysAddr, Vec<u8>);

/// The memory scraping attack.
///
/// # Example
///
/// ```
/// use msa_core::attack::{AttackConfig, AttackPipeline};
/// use msa_core::profile::Profiler;
/// use petalinux_sim::{BoardConfig, Kernel, UserId};
/// use vitis_ai_sim::{DpuRunner, Image, ModelKind};
/// use xsdb::DebugSession;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let board = BoardConfig::tiny_for_tests();
/// // Offline: profile the public library on the attacker's own board.
/// let profiles = Profiler::new(board).profile_all();
/// let pipeline = AttackPipeline::new(AttackConfig::default()).with_profiles(profiles);
///
/// // Online: the victim runs; the attacker observes, waits, scrapes.
/// let mut kernel = Kernel::boot(board);
/// let victim = DpuRunner::new(ModelKind::Resnet50Pt)
///     .with_input(Image::corrupted(224, 224))
///     .launch(&mut kernel, UserId::new(0))?;
/// let mut debugger = DebugSession::connect(UserId::new(1));
///
/// let pid = pipeline.poll_for_victim(&mut debugger, &kernel)?;
/// let observation = pipeline.observe_victim(&mut debugger, &kernel, pid)?;
/// victim.terminate(&mut kernel)?;
/// let outcome = pipeline.execute(&mut debugger, &kernel, &observation)?;
/// assert_eq!(outcome.identified_model(), Some(ModelKind::Resnet50Pt));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct AttackPipeline {
    config: AttackConfig,
    signatures: SignatureDb,
    profiles: ProfileDatabase,
}

impl AttackPipeline {
    /// Creates a pipeline with the standard signature database and no
    /// profiles.
    pub fn new(config: AttackConfig) -> Self {
        AttackPipeline {
            config,
            signatures: SignatureDb::standard(),
            profiles: ProfileDatabase::new(),
        }
    }

    /// Attaches an offline-profiling database (enables image reconstruction
    /// at profiled offsets).
    pub fn with_profiles(mut self, profiles: ProfileDatabase) -> Self {
        self.profiles = profiles;
        self
    }

    /// Replaces the signature database.
    pub fn with_signatures(mut self, signatures: SignatureDb) -> Self {
        self.signatures = signatures;
        self
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &AttackConfig {
        &self.config
    }

    /// The attached profile database.
    pub fn profiles(&self) -> &ProfileDatabase {
        &self.profiles
    }

    /// Step 1: poll the process list for a victim.
    ///
    /// A process matches when its command line contains the configured
    /// pattern, or — with no pattern configured — the name of any zoo model.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::VictimNotFound`] when nothing matches.
    pub fn poll_for_victim(
        &self,
        debugger: &mut DebugSession,
        kernel: &Kernel,
    ) -> Result<Pid, AttackError> {
        let processes = debugger.list_processes(kernel);
        let matched = processes
            .into_iter()
            .find(|p| match &self.config.victim_pattern {
                Some(pattern) => p.command.contains(pattern),
                None => ModelKind::all()
                    .iter()
                    .any(|model| p.command.contains(model.name())),
            });
        matched.map(|p| p.pid).ok_or(AttackError::VictimNotFound)
    }

    /// Steps 1–2 combined: capture the victim's heap translation while it is
    /// still running.
    ///
    /// # Errors
    ///
    /// Propagates translation errors (missing heap, denied access, …).
    pub fn observe_victim(
        &self,
        debugger: &mut DebugSession,
        kernel: &Kernel,
        pid: Pid,
    ) -> Result<Observation, AttackError> {
        self.observe_with_timings(debugger, kernel, pid, StepTimingsBuilder::new())
    }

    /// Step 2 with an existing partial timing record (carrying the poll
    /// stamp); stamps the translate step on top.
    fn observe_with_timings(
        &self,
        debugger: &mut DebugSession,
        kernel: &Kernel,
        pid: Pid,
        timings: StepTimingsBuilder,
    ) -> Result<Observation, AttackError> {
        let start = Instant::now();
        let translation = capture_heap_translation(debugger, kernel, pid)?;
        Ok(Observation {
            translation,
            timings: timings.with_translate(start.elapsed()),
        })
    }

    /// Convenience for Steps 1–2: poll, then observe whichever victim was
    /// found.
    ///
    /// # Errors
    ///
    /// Propagates polling and translation errors.
    pub fn poll_and_observe(
        &self,
        debugger: &mut DebugSession,
        kernel: &Kernel,
    ) -> Result<Observation, AttackError> {
        let poll_start = Instant::now();
        let pid = self.poll_for_victim(debugger, kernel)?;
        let timings = StepTimingsBuilder::new().with_poll(poll_start.elapsed());
        self.observe_with_timings(debugger, kernel, pid, timings)
    }

    /// Step 3: scrape the victim's heap from physical memory, requiring that
    /// the victim has terminated (as the paper's procedure does).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::VictimStillRunning`] if the pid is still in the
    /// process list, plus any scraping errors.
    pub fn scrape_after_termination(
        &self,
        debugger: &mut DebugSession,
        kernel: &Kernel,
        observation: &Observation,
    ) -> Result<MemoryDump, AttackError> {
        if debugger.is_running(kernel, observation.pid()) {
            return Err(AttackError::VictimStillRunning {
                pid: observation.pid(),
            });
        }
        scrape_heap(
            debugger,
            kernel,
            observation.translation(),
            self.config.scrape_mode,
        )
    }

    /// Step 3b, the compressed-swap channel: decompresses every residue slot
    /// the victim left in the swap store and overlays the recovered
    /// plaintext onto the scraped dump ([`MemoryDump::overlay_page`] —
    /// bytes the DRAM scrape already recovered always win).
    ///
    /// Swap slots are indexed by heap-relative page, so the overlay needs no
    /// physical translation; slots another owner wrote, slots a swap-aware
    /// sanitizer scrubbed, and slots decay has driven to all-zero contribute
    /// nothing.  Returns the number of dump bytes filled in.
    pub fn read_swap_residue(
        &self,
        kernel: &Kernel,
        observation: &Observation,
        dump: &mut MemoryDump,
    ) -> usize {
        let owner = observation.pid().owner_tag();
        let store = kernel.dram().swap_store();
        let mut filled = 0;
        for (id, slot) in store.residue_slots() {
            if slot.owner() != owner {
                continue;
            }
            if let Some(bytes) = store.read_slot(id) {
                filled += dump.overlay_page(slot.page_index(), &bytes);
            }
        }
        filled
    }

    /// Step 4: analyse a dump — identify the model, find image markers,
    /// reconstruct the image.
    pub fn analyze(&self, dump: &MemoryDump) -> Analysis {
        self.analyze_view(&dump.as_view())
    }

    /// Step 4 over a borrowed [`ScrapeView`] — the same analysis, run
    /// directly against the DRAM arena with no owned dump in between
    /// ([`AttackPipeline::analyze`] delegates here, so both paths share one
    /// algorithm).
    pub fn analyze_view(&self, view: &ScrapeView<'_>) -> Analysis {
        let usable = |m: &crate::signature::ModelMatch| {
            m.confidence() >= self.config.min_identification_confidence
        };
        let mut identified = identify_model_view(view, &self.signatures);
        if self.config.reconstruct && !identified.as_ref().is_some_and(usable) {
            // Decay-tolerant fallback: bit-level fuzzy signature matching
            // over the same view, which survives clipped and erased bytes.
            identified = fuzzy_identify_view(view, &self.signatures)
                .filter(usable)
                .or(identified);
        }
        let runs = marker_runs_view(view, CORRUPTED_MARKER, self.config.marker_min_run);

        let mut image_offset_used = None;
        let mut reconstructed_image = None;
        if let Some(matched) = &identified {
            if usable(matched) && matched.model.accepts_image_input() {
                // Preferred: the offset learned by offline profiling.
                if let Some(profile) = self.profiles.profile(matched.model) {
                    image_offset_used = Some(OffsetSource::Profile {
                        offset: profile.image_offset,
                    });
                } else if let Some(run) = runs.first() {
                    // Fallback: the first corrupted-image marker run.
                    image_offset_used = Some(OffsetSource::Marker { offset: run.offset });
                } else if self.config.reconstruct {
                    // Last resort, reconstruction only: locate the image by
                    // its entropy region signature (decay shortens marker
                    // runs below any useful threshold long before it erases
                    // the region structure).
                    let (w, h) = matched.model.input_dims();
                    if let Some(offset) = entropy_image_offset(view, (w * h * 3) as usize) {
                        image_offset_used = Some(OffsetSource::Entropy { offset });
                    }
                }
                if let Some(source) = image_offset_used {
                    reconstructed_image =
                        reconstruct_image_view(view, matched.model, source.offset());
                }
                if self.config.reconstruct {
                    // Heal decay damage by neighbor interpolation before the
                    // reconstruction is scored.
                    reconstructed_image = reconstructed_image.map(|image| repair_image(&image));
                }
            }
        }

        Analysis {
            identified,
            marker_runs: runs,
            reconstructed_image,
            image_offset_used,
        }
    }

    /// Step 4 plus outcome assembly: analyses `dump` (timing the analysis)
    /// and folds it with the observation's partial timings and the caller's
    /// scrape duration into a full [`AttackOutcome`].
    ///
    /// Used by [`AttackPipeline::execute`] and by schedule-driven scrapers
    /// (live-traffic churn) that produce the dump themselves.
    pub fn score_dump(
        &self,
        observation: &Observation,
        dump: &MemoryDump,
        scrape_elapsed: Duration,
    ) -> AttackOutcome {
        let analyze_start = Instant::now();
        let analysis = self.analyze(dump);
        let analyze_elapsed = analyze_start.elapsed();

        AttackOutcome {
            victim_pid: observation.pid(),
            identified: analysis.identified,
            marker_runs: analysis.marker_runs,
            reconstructed_image: analysis.reconstructed_image,
            image_offset_used: analysis.image_offset_used,
            bytes_scraped: dump.len(),
            dump_coverage: dump.coverage(),
            timings: observation
                .timings
                .with_scrape(scrape_elapsed)
                .with_analyze(analyze_elapsed)
                .build(),
        }
    }

    /// [`AttackPipeline::score_dump`] for the zero-copy path: analyses a
    /// borrowed [`HeapView`] and folds it into the same [`AttackOutcome`].
    pub fn score_view(
        &self,
        observation: &Observation,
        heap: &HeapView<'_>,
        scrape_elapsed: Duration,
    ) -> AttackOutcome {
        let analyze_start = Instant::now();
        let analysis = self.analyze_view(heap.view());
        let analyze_elapsed = analyze_start.elapsed();

        AttackOutcome {
            victim_pid: observation.pid(),
            identified: analysis.identified,
            marker_runs: analysis.marker_runs,
            reconstructed_image: analysis.reconstructed_image,
            image_offset_used: analysis.image_offset_used,
            bytes_scraped: heap.len(),
            dump_coverage: heap.coverage(),
            timings: observation
                .timings
                .with_scrape(scrape_elapsed)
                .with_analyze(analyze_elapsed)
                .build(),
        }
    }

    /// Steps 3–4: scrape the terminated victim and analyse the dump,
    /// producing the full [`AttackOutcome`] with timings.
    ///
    /// When the board's remanence model permits borrowed reads (the default
    /// perfect model), the scrape-and-analyse hot path runs zero-copy: the
    /// heap is borrowed straight out of the DRAM arena as a
    /// [`HeapView`] and analysed in place.  Otherwise it falls back to the
    /// owned [`MemoryDump`].  Outcome and audit trail are identical either
    /// way.
    ///
    /// # Errors
    ///
    /// Propagates scraping errors.
    pub fn execute(
        &self,
        debugger: &mut DebugSession,
        kernel: &Kernel,
        observation: &Observation,
    ) -> Result<AttackOutcome, AttackError> {
        if debugger.is_running(kernel, observation.pid()) {
            return Err(AttackError::VictimStillRunning {
                pid: observation.pid(),
            });
        }
        let scrape_start = Instant::now();
        if let Some(heap) = scrape_heap_view(
            debugger,
            kernel,
            observation.translation(),
            self.config.scrape_mode,
        )? {
            let scrape_elapsed = scrape_start.elapsed();
            return Ok(self.score_view(observation, &heap, scrape_elapsed));
        }
        let dump = scrape_heap(
            debugger,
            kernel,
            observation.translation(),
            self.config.scrape_mode,
        )?;
        let scrape_elapsed = scrape_start.elapsed();
        Ok(self.score_dump(observation, &dump, scrape_elapsed))
    }

    /// [`AttackPipeline::execute`] with a mutable kernel, which is what
    /// [`ScrapeMode::MultiSnapshot`] needs: the decay clock is ticked once
    /// between snapshots, so each read sees the residue one revival window
    /// later, and the snapshots are OR-fused into the analysed dump.
    ///
    /// This entry point also drains the compressed-swap channel: when the
    /// victim left residue slots in the swap store
    /// ([`AttackPipeline::read_swap_residue`]), the scrape takes the
    /// owned-dump path (the zero-copy view borrows the DRAM arena and
    /// cannot be overlaid) and the decompressed slots fill the bytes the
    /// DRAM scrape missed before scoring.
    ///
    /// Every other scrape mode on a swap-free board behaves exactly as
    /// [`AttackPipeline::execute`] (the kernel is simply not mutated).
    ///
    /// # Errors
    ///
    /// Propagates scraping errors, and rejects a zero snapshot count.
    pub fn execute_mut(
        &self,
        debugger: &mut DebugSession,
        kernel: &mut Kernel,
        observation: &Observation,
    ) -> Result<AttackOutcome, AttackError> {
        self.execute_mut_with_final_read(debugger, kernel, observation)
            .map(|(outcome, _)| outcome)
    }

    /// [`AttackPipeline::execute_mut`], also returning the last snapshot of
    /// a [`ScrapeMode::MultiSnapshot`] scrape as its physical start address
    /// and bytes, before any swap overlay.  The kernel's clock ends the
    /// scrape at that snapshot's tick, so the read is what
    /// [`zynq_dram::Dram::residue_decay_from_read`] needs.  Every other mode
    /// returns `None`.
    pub(crate) fn execute_mut_with_final_read(
        &self,
        debugger: &mut DebugSession,
        kernel: &mut Kernel,
        observation: &Observation,
    ) -> Result<(AttackOutcome, Option<FinalRead>), AttackError> {
        let owner = observation.pid().owner_tag();
        let has_swap_residue = kernel.dram().swap_store().residue_bytes(Some(owner)) > 0;
        let ScrapeMode::MultiSnapshot { snapshots } = self.config.scrape_mode else {
            if !has_swap_residue {
                return Ok((self.execute(debugger, kernel, observation)?, None));
            }
            if debugger.is_running(kernel, observation.pid()) {
                return Err(AttackError::VictimStillRunning {
                    pid: observation.pid(),
                });
            }
            let scrape_start = Instant::now();
            let mut dump = scrape_heap(
                debugger,
                kernel,
                observation.translation(),
                self.config.scrape_mode,
            )?;
            self.read_swap_residue(kernel, observation, &mut dump);
            let scrape_elapsed = scrape_start.elapsed();
            return Ok((self.score_dump(observation, &dump, scrape_elapsed), None));
        };
        if debugger.is_running(kernel, observation.pid()) {
            return Err(AttackError::VictimStillRunning {
                pid: observation.pid(),
            });
        }
        let scrape_start = Instant::now();
        let SnapshotScrape {
            mut dump,
            mut snapshots,
        } = scrape_heap_snapshots(debugger, kernel, observation.translation(), snapshots)?;
        let final_read = dump
            .page_sources()
            .first()
            .copied()
            .flatten()
            .zip(snapshots.pop());
        if has_swap_residue {
            self.read_swap_residue(kernel, observation, &mut dump);
        }
        let scrape_elapsed = scrape_start.elapsed();
        Ok((
            self.score_dump(observation, &dump, scrape_elapsed),
            final_read,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use petalinux_sim::{BoardConfig, UserId};
    use vitis_ai_sim::{DpuRunner, Image};

    use crate::profile::Profiler;

    fn board() -> BoardConfig {
        BoardConfig::tiny_for_tests()
    }

    fn pipeline_with_profiles() -> AttackPipeline {
        let profiles = Profiler::new(board()).profile_all();
        AttackPipeline::new(AttackConfig::default()).with_profiles(profiles)
    }

    #[test]
    fn full_pipeline_recovers_model_and_image() {
        let pipeline = pipeline_with_profiles();
        let mut kernel = Kernel::boot(board());
        let input = Image::sample_photo(224, 224);
        let victim = DpuRunner::new(ModelKind::Resnet50Pt)
            .with_input(input.clone())
            .launch(&mut kernel, UserId::new(0))
            .unwrap();
        let mut debugger = DebugSession::connect(UserId::new(1));

        let observation = pipeline.poll_and_observe(&mut debugger, &kernel).unwrap();
        assert_eq!(observation.pid(), victim.pid());
        assert!(observation.translation().completeness() > 0.99);

        victim.terminate(&mut kernel).unwrap();
        let outcome = pipeline
            .execute(&mut debugger, &kernel, &observation)
            .unwrap();

        assert_eq!(outcome.identified_model(), Some(ModelKind::Resnet50Pt));
        assert!(outcome.identification_confidence() >= 0.5);
        assert!(outcome.has_reconstructed_image());
        assert_eq!(outcome.image_recovery_rate(&input), 1.0);
        assert!(matches!(
            outcome.image_offset_used,
            Some(OffsetSource::Profile { .. })
        ));
        assert!(outcome.bytes_scraped > 0);
        assert_eq!(outcome.dump_coverage, 1.0);
        // An ordinary photo contains no long 0xFF runs.
        assert!(outcome.marker_runs.is_empty());
    }

    #[test]
    fn corrupted_image_is_found_via_marker_without_profiles() {
        // No profiles attached: the marker fallback locates the image.
        let pipeline = AttackPipeline::new(AttackConfig::default());
        assert!(pipeline.profiles().is_empty());
        let mut kernel = Kernel::boot(board());
        let victim = DpuRunner::new(ModelKind::Resnet50Pt)
            .with_input(Image::corrupted(224, 224))
            .launch(&mut kernel, UserId::new(0))
            .unwrap();
        let mut debugger = DebugSession::connect(UserId::new(1));
        let observation = pipeline.poll_and_observe(&mut debugger, &kernel).unwrap();
        victim.terminate(&mut kernel).unwrap();
        let outcome = pipeline
            .execute(&mut debugger, &kernel, &observation)
            .unwrap();

        assert_eq!(outcome.identified_model(), Some(ModelKind::Resnet50Pt));
        assert!(!outcome.marker_runs.is_empty());
        assert!(matches!(
            outcome.image_offset_used,
            Some(OffsetSource::Marker { .. })
        ));
        assert_eq!(
            outcome.image_recovery_rate(&Image::corrupted(224, 224)),
            1.0
        );
    }

    #[test]
    fn zero_copy_execute_scores_identically_to_the_owned_pipeline() {
        let pipeline = pipeline_with_profiles();
        let mut kernel = Kernel::boot(board());
        let input = Image::corrupted(224, 224);
        let victim = DpuRunner::new(ModelKind::Resnet50Pt)
            .with_input(input.clone())
            .launch(&mut kernel, UserId::new(0))
            .unwrap();
        let mut debugger = DebugSession::connect(UserId::new(1));
        let observation = pipeline.poll_and_observe(&mut debugger, &kernel).unwrap();
        victim.terminate(&mut kernel).unwrap();

        // `execute` takes the zero-copy view path under perfect remanence;
        // the owned scrape-and-score must agree on every non-timing field.
        let via_view = pipeline
            .execute(&mut debugger, &kernel, &observation)
            .unwrap();
        let dump = pipeline
            .scrape_after_termination(&mut debugger, &kernel, &observation)
            .unwrap();
        let via_dump = pipeline.score_dump(&observation, &dump, Duration::ZERO);

        assert_eq!(via_view.victim_pid, via_dump.victim_pid);
        assert_eq!(via_view.identified, via_dump.identified);
        assert_eq!(via_view.marker_runs, via_dump.marker_runs);
        assert_eq!(via_view.reconstructed_image, via_dump.reconstructed_image);
        assert_eq!(via_view.image_offset_used, via_dump.image_offset_used);
        assert_eq!(via_view.bytes_scraped, via_dump.bytes_scraped);
        assert_eq!(via_view.dump_coverage, via_dump.dump_coverage);

        // And the analysis cores agree directly, dump vs borrowed view.
        assert_eq!(
            pipeline.analyze(&dump),
            pipeline.analyze_view(&dump.as_view())
        );
    }

    #[test]
    fn polling_honours_explicit_pattern_and_fails_cleanly() {
        let mut kernel = Kernel::boot(board());
        kernel.spawn(UserId::new(0), &["sh"]).unwrap();
        let mut debugger = DebugSession::connect(UserId::new(1));

        let default_pipeline = AttackPipeline::new(AttackConfig::default());
        assert!(matches!(
            default_pipeline.poll_for_victim(&mut debugger, &kernel),
            Err(AttackError::VictimNotFound)
        ));

        let victim = DpuRunner::new(ModelKind::YoloV3)
            .launch(&mut kernel, UserId::new(0))
            .unwrap();
        assert_eq!(
            default_pipeline
                .poll_for_victim(&mut debugger, &kernel)
                .unwrap(),
            victim.pid()
        );

        let targeted = AttackPipeline::new(AttackConfig {
            victim_pattern: Some("resnet50".to_string()),
            ..AttackConfig::default()
        });
        assert!(matches!(
            targeted.poll_for_victim(&mut debugger, &kernel),
            Err(AttackError::VictimNotFound)
        ));
    }

    #[test]
    fn scraping_before_termination_is_refused() {
        let pipeline = AttackPipeline::new(AttackConfig::default());
        let mut kernel = Kernel::boot(board());
        let _victim = DpuRunner::new(ModelKind::SqueezeNet)
            .launch(&mut kernel, UserId::new(0))
            .unwrap();
        let mut debugger = DebugSession::connect(UserId::new(1));
        let observation = pipeline.poll_and_observe(&mut debugger, &kernel).unwrap();
        assert!(matches!(
            pipeline.scrape_after_termination(&mut debugger, &kernel, &observation),
            Err(AttackError::VictimStillRunning { .. })
        ));
    }

    #[test]
    fn sanitized_board_defeats_the_attack() {
        use zynq_dram::SanitizePolicy;
        let hardened = board().with_sanitize_policy(SanitizePolicy::ZeroOnFree);
        let profiles = Profiler::new(board()).profile_all();
        let pipeline = AttackPipeline::new(AttackConfig::default()).with_profiles(profiles);
        let mut kernel = Kernel::boot(hardened);
        let input = Image::corrupted(224, 224);
        let victim = DpuRunner::new(ModelKind::Resnet50Pt)
            .with_input(input.clone())
            .launch(&mut kernel, UserId::new(0))
            .unwrap();
        let mut debugger = DebugSession::connect(UserId::new(1));
        let observation = pipeline.poll_and_observe(&mut debugger, &kernel).unwrap();
        victim.terminate(&mut kernel).unwrap();
        let outcome = pipeline
            .execute(&mut debugger, &kernel, &observation)
            .unwrap();

        assert!(outcome.identified_model().is_none());
        assert!(outcome.marker_runs.is_empty());
        assert!(!outcome.has_reconstructed_image());
        assert_eq!(outcome.image_recovery_rate(&input), 0.0);
    }

    #[test]
    fn config_and_mode_defaults() {
        let config = AttackConfig::default();
        assert_eq!(config.scrape_mode, ScrapeMode::ContiguousRange);
        assert!(config.victim_pattern.is_none());
        assert_eq!(ScrapeMode::default(), ScrapeMode::ContiguousRange);
        assert_eq!(ScrapeMode::ContiguousRange.to_string(), "contiguous-range");
        assert_eq!(ScrapeMode::PerPage.to_string(), "per-page");
        assert_eq!(
            ScrapeMode::MultiSnapshot { snapshots: 3 }.to_string(),
            "multi-snapshot(3)"
        );
        assert!(ScrapeMode::ContiguousRange.reads_contiguous_range());
        assert!(ScrapeMode::MultiSnapshot { snapshots: 3 }.reads_contiguous_range());
        assert!(!ScrapeMode::PerPage.reads_contiguous_range());
        assert!(!AttackConfig::default().reconstruct);
        assert!(ScrapeMode::MultiSnapshot { snapshots: 1 }
            .validate()
            .is_ok());
        assert!(ScrapeMode::MultiSnapshot { snapshots: 0 }
            .validate()
            .unwrap_err()
            .to_string()
            .contains("zero snapshots"));
        let pipeline = AttackPipeline::default();
        assert_eq!(pipeline.config(), &AttackConfig::default());
    }
}
