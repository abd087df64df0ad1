//! Attack outcome and timing metrics.

use std::time::Duration;

use petalinux_sim::Pid;
use vitis_ai_sim::{Image, ModelKind};

use crate::analysis::marker::MarkerRun;
use crate::signature::ModelMatch;

/// Wall-clock duration of each attack step (the latency breakdown reported by
/// the TAB-A experiment).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepTimings {
    /// Step 1: polling for the victim pid.
    pub poll: Duration,
    /// Step 2: reading maps/pagemap and translating addresses.
    pub translate: Duration,
    /// Step 3: scraping physical memory.
    pub scrape: Duration,
    /// Step 4: analysing the dump.
    pub analyze: Duration,
}

impl StepTimings {
    /// Total duration across all steps.
    pub fn total(&self) -> Duration {
        self.poll + self.translate + self.scrape + self.analyze
    }
}

/// Incremental recorder for [`StepTimings`].
///
/// Each pipeline stage stamps its own duration exactly once as it happens;
/// nothing is zeroed up front and patched in afterwards.  An
/// [`crate::attack::Observation`] owns the partial record (poll + translate),
/// and [`crate::attack::AttackPipeline::execute`] completes it with the
/// scrape and analyze stamps before [`StepTimingsBuilder::build`]ing the
/// final [`StepTimings`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepTimingsBuilder {
    timings: StepTimings,
}

impl StepTimingsBuilder {
    /// Starts an empty record.
    pub fn new() -> Self {
        StepTimingsBuilder::default()
    }

    /// Stamps the Step 1 (poll) duration.
    pub fn with_poll(mut self, elapsed: Duration) -> Self {
        self.timings.poll = elapsed;
        self
    }

    /// Stamps the Step 2 (translate) duration.
    pub fn with_translate(mut self, elapsed: Duration) -> Self {
        self.timings.translate = elapsed;
        self
    }

    /// Stamps the Step 3 (scrape) duration.
    pub fn with_scrape(mut self, elapsed: Duration) -> Self {
        self.timings.scrape = elapsed;
        self
    }

    /// Stamps the Step 4 (analyze) duration.
    pub fn with_analyze(mut self, elapsed: Duration) -> Self {
        self.timings.analyze = elapsed;
        self
    }

    /// Finishes the record.
    pub fn build(self) -> StepTimings {
        self.timings
    }
}

/// Everything the attack recovered from one victim.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackOutcome {
    /// The victim process the attack targeted.
    pub victim_pid: Pid,
    /// The model identification result (Step 4.a), if any signature matched.
    pub identified: Option<ModelMatch>,
    /// Marker runs found in the dump (corrupted-image evidence, Figure 12).
    pub marker_runs: Vec<MarkerRun>,
    /// The reconstructed input image (Step 4.b), if reconstruction succeeded.
    pub reconstructed_image: Option<Image>,
    /// The heap-relative offset used for reconstruction, and where it came
    /// from.
    pub image_offset_used: Option<OffsetSource>,
    /// Number of bytes scraped from physical memory.
    pub bytes_scraped: usize,
    /// Fraction of heap pages that were captured.
    pub dump_coverage: f64,
    /// Per-step wall-clock timings.
    pub timings: StepTimings,
}

/// Where the image offset used for reconstruction came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum OffsetSource {
    /// The offset was learned by offline profiling of the identified model.
    Profile {
        /// The heap-relative offset.
        offset: u64,
    },
    /// The offset was taken from the first marker run found in the dump
    /// (possible only when the victim used a marker image).
    Marker {
        /// The heap-relative offset.
        offset: u64,
    },
    /// The offset was inferred from entropy region classes
    /// ([`crate::analysis::reconstruct::entropy_image_offset`]) — the
    /// decay-tolerant fallback when no profile or marker run is usable.
    Entropy {
        /// The heap-relative offset.
        offset: u64,
    },
}

impl OffsetSource {
    /// The heap-relative offset, regardless of provenance.
    pub fn offset(&self) -> u64 {
        match self {
            OffsetSource::Profile { offset }
            | OffsetSource::Marker { offset }
            | OffsetSource::Entropy { offset } => *offset,
        }
    }
}

impl AttackOutcome {
    /// The identified model, if Step 4.a succeeded.
    pub fn identified_model(&self) -> Option<ModelKind> {
        self.identified.as_ref().map(|m| m.model)
    }

    /// Confidence of the identification (0.0 when nothing was identified).
    pub fn identification_confidence(&self) -> f64 {
        self.identified.as_ref().map_or(0.0, |m| m.confidence())
    }

    /// Returns `true` if an input image was reconstructed.
    pub fn has_reconstructed_image(&self) -> bool {
        self.reconstructed_image.is_some()
    }

    /// Fraction of `ground_truth`'s pixels that the reconstruction matches
    /// exactly (0.0 when no image was reconstructed).
    pub fn image_recovery_rate(&self, ground_truth: &Image) -> f64 {
        crate::analysis::image::recovery_rate(self.reconstructed_image.as_ref(), ground_truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_total() {
        let t = StepTimings {
            poll: Duration::from_millis(1),
            translate: Duration::from_millis(2),
            scrape: Duration::from_millis(3),
            analyze: Duration::from_millis(4),
        };
        assert_eq!(t.total(), Duration::from_millis(10));
        assert_eq!(StepTimings::default().total(), Duration::ZERO);
    }

    #[test]
    fn timings_builder_stamps_each_step_once() {
        let timings = StepTimingsBuilder::new()
            .with_poll(Duration::from_millis(1))
            .with_translate(Duration::from_millis(2))
            .with_scrape(Duration::from_millis(3))
            .with_analyze(Duration::from_millis(4))
            .build();
        assert_eq!(timings.total(), Duration::from_millis(10));
        // A partial record leaves unstamped steps at zero.
        let partial = StepTimingsBuilder::new()
            .with_translate(Duration::from_millis(2))
            .build();
        assert_eq!(partial.poll, Duration::ZERO);
        assert_eq!(partial.translate, Duration::from_millis(2));
    }

    #[test]
    fn offset_source_accessor() {
        assert_eq!(OffsetSource::Profile { offset: 7 }.offset(), 7);
        assert_eq!(OffsetSource::Marker { offset: 9 }.offset(), 9);
        assert_eq!(OffsetSource::Entropy { offset: 11 }.offset(), 11);
    }

    #[test]
    fn empty_outcome_scores_zero() {
        let outcome = AttackOutcome {
            victim_pid: Pid::new(1),
            identified: None,
            marker_runs: Vec::new(),
            reconstructed_image: None,
            image_offset_used: None,
            bytes_scraped: 0,
            dump_coverage: 0.0,
            timings: StepTimings::default(),
        };
        assert!(outcome.identified_model().is_none());
        assert_eq!(outcome.identification_confidence(), 0.0);
        assert!(!outcome.has_reconstructed_image());
        assert_eq!(outcome.image_recovery_rate(&Image::corrupted(4, 4)), 0.0);
    }

    #[test]
    fn populated_outcome_reports_recovery() {
        let truth = Image::corrupted(8, 8);
        let outcome = AttackOutcome {
            victim_pid: Pid::new(1391),
            identified: Some(ModelMatch {
                model: ModelKind::Resnet50Pt,
                hits: 3,
                total_patterns: 3,
                fuzzy_distance: None,
            }),
            marker_runs: vec![MarkerRun {
                offset: 64,
                len: 192,
            }],
            reconstructed_image: Some(Image::corrupted(8, 8)),
            image_offset_used: Some(OffsetSource::Profile { offset: 64 }),
            bytes_scraped: 4096,
            dump_coverage: 1.0,
            timings: StepTimings::default(),
        };
        assert_eq!(outcome.identified_model(), Some(ModelKind::Resnet50Pt));
        assert_eq!(outcome.identification_confidence(), 1.0);
        assert!(outcome.has_reconstructed_image());
        assert_eq!(outcome.image_recovery_rate(&truth), 1.0);
    }
}
