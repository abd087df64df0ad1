//! Offline profiling: learning high-value memory offsets per model.
//!
//! The adversary model gives the attacker access to the same public Vitis AI
//! library the victim uses (paper §II).  The attacker therefore runs each
//! model *on their own board* with a known sentinel input (`0x555555` pixels),
//! scrapes their own terminated process, and records where within the heap
//! dump the sentinel appears.  Because PetaLinux's layout is deterministic,
//! that offset transfers verbatim to the victim's run — the property the
//! paper demonstrates with the "row number 646768" observation.

// Lint audit: indexes and slice bounds here are established by the
// surrounding length checks / loop invariants before use.
#![allow(clippy::indexing_slicing)]

use std::collections::BTreeMap;

use petalinux_sim::{BoardConfig, Kernel, UserId};
use vitis_ai_sim::{weights, DpuRunner, Image, ModelKind};
use xsdb::DebugSession;

use crate::analysis::marker::{first_marker_offset, SENTINEL_MARKER};
use crate::attack::ScrapeMode;
use crate::error::AttackError;
use crate::scrape::scrape_heap;
use crate::translate::capture_heap_translation;

/// The heap offsets learned for one model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelProfile {
    /// The profiled model.
    pub model: ModelKind,
    /// Heap-relative byte offset at which the input image starts.
    pub image_offset: u64,
    /// Heap-relative byte offset at which the weight blob starts, when it was
    /// located.
    pub weights_offset: Option<u64>,
    /// Length of the model's heap in bytes (used to bound scraping).
    pub heap_len: u64,
}

/// A database of per-model profiles, keyed by model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileDatabase {
    profiles: BTreeMap<ModelKind, ModelProfile>,
}

impl ProfileDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        ProfileDatabase::default()
    }

    /// Inserts or replaces a profile.
    pub fn insert(&mut self, profile: ModelProfile) {
        self.profiles.insert(profile.model, profile);
    }

    /// The profile for `model`, if present.
    pub fn profile(&self, model: ModelKind) -> Option<&ModelProfile> {
        self.profiles.get(&model)
    }

    /// Number of profiled models.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Returns `true` if no model has been profiled.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Iterates over all profiles, ordered by model.
    pub fn iter(&self) -> impl Iterator<Item = &ModelProfile> {
        self.profiles.values()
    }
}

/// Runs the offline profiling procedure on the attacker's own board.
#[derive(Debug, Clone)]
pub struct Profiler {
    board: BoardConfig,
    scrape_mode: ScrapeMode,
}

impl Profiler {
    /// Creates a profiler that replays the victim board's configuration.
    ///
    /// Profiling always runs as root: it happens on hardware the attacker
    /// fully controls, offline, before the attack.
    pub fn new(board: BoardConfig) -> Self {
        Profiler {
            board,
            scrape_mode: ScrapeMode::ContiguousRange,
        }
    }

    /// Overrides the scrape mode used during profiling.
    pub fn with_scrape_mode(mut self, mode: ScrapeMode) -> Self {
        self.scrape_mode = mode;
        self
    }

    /// Profiles one model: runs it with the sentinel image, scrapes the
    /// terminated process and locates the sentinel and weight offsets.
    ///
    /// # Errors
    ///
    /// Propagates attack-channel errors; returns
    /// [`AttackError::ProfileMissing`] if the sentinel could not be located in
    /// the scraped dump.
    pub fn profile_model(&self, model: ModelKind) -> Result<ModelProfile, AttackError> {
        let user = UserId::new(0);
        let mut kernel = Kernel::boot(self.board);
        let (w, h) = model.input_dims();
        let launched = DpuRunner::new(model)
            .with_input(Image::profiling_sentinel(w, h))
            .launch(&mut kernel, user)
            .map_err(|e| match e {
                vitis_ai_sim::RunnerError::Kernel(k) => AttackError::Channel(k),
            })?;

        let mut debugger = DebugSession::connect(user);
        let translation = capture_heap_translation(&mut debugger, &kernel, launched.pid())?;
        launched.terminate(&mut kernel).map_err(|e| match e {
            vitis_ai_sim::RunnerError::Kernel(k) => AttackError::Channel(k),
        })?;
        let dump = scrape_heap(&mut debugger, &kernel, &translation, self.scrape_mode)?;

        let min_run = (w as u64 * 3).max(64);
        let image_offset = first_marker_offset(&dump, SENTINEL_MARKER, min_run)
            .ok_or(AttackError::ProfileMissing { model })?;

        // The attacker knows the public weights, so it can also locate the
        // weight blob by searching for its first bytes.
        let prefix = &weights::quantized_weights(model)[..32];
        let weights_offset = dump.as_view().find(prefix).map(|offset| offset as u64);

        Ok(ModelProfile {
            model,
            image_offset,
            weights_offset,
            heap_len: dump.len() as u64,
        })
    }

    /// Profiles every model in the zoo, skipping models whose profiling run
    /// fails (none do under the default configuration).
    pub fn profile_all(&self) -> ProfileDatabase {
        let mut db = ProfileDatabase::new();
        for model in ModelKind::all() {
            if let Ok(profile) = self.profile_model(model) {
                db.insert(profile);
            }
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vitis_ai_sim::runner::heap_image;

    #[test]
    fn profiled_image_offset_matches_ground_truth_layout() {
        let profiler = Profiler::new(BoardConfig::tiny_for_tests());
        let profile = profiler.profile_model(ModelKind::Resnet50Pt).unwrap();
        let (_, layout) = heap_image(ModelKind::Resnet50Pt, &Image::profiling_sentinel(224, 224));
        assert_eq!(profile.image_offset, layout.image_offset);
        assert_eq!(profile.heap_len, layout.heap_len);
        assert_eq!(profile.weights_offset, Some(layout.weights_offset));
        assert_eq!(profile.model, ModelKind::Resnet50Pt);
    }

    #[test]
    fn profiles_transfer_across_models_with_distinct_offsets() {
        let profiler = Profiler::new(BoardConfig::tiny_for_tests());
        let a = profiler.profile_model(ModelKind::SqueezeNet).unwrap();
        let b = profiler.profile_model(ModelKind::Vgg16).unwrap();
        assert_ne!(a.image_offset, b.image_offset);
        assert_ne!(a.heap_len, b.heap_len);
    }

    #[test]
    fn profile_all_covers_the_zoo() {
        let profiler =
            Profiler::new(BoardConfig::tiny_for_tests()).with_scrape_mode(ScrapeMode::PerPage);
        let db = profiler.profile_all();
        assert_eq!(db.len(), ModelKind::all().len());
        assert!(!db.is_empty());
        for model in ModelKind::all() {
            assert!(db.profile(model).is_some(), "missing profile for {model}");
        }
        assert_eq!(db.iter().count(), db.len());
    }

    #[test]
    fn database_insert_and_lookup() {
        let mut db = ProfileDatabase::new();
        assert!(db.is_empty());
        assert!(db.profile(ModelKind::YoloV3).is_none());
        db.insert(ModelProfile {
            model: ModelKind::YoloV3,
            image_offset: 100,
            weights_offset: None,
            heap_len: 4096,
        });
        db.insert(ModelProfile {
            model: ModelKind::YoloV3,
            image_offset: 200,
            weights_offset: Some(50),
            heap_len: 8192,
        });
        assert_eq!(db.len(), 1);
        assert_eq!(db.profile(ModelKind::YoloV3).unwrap().image_offset, 200);
        assert_eq!(db, db.clone());
    }
}
