//! Model signature database.
//!
//! The adversary model (paper §II) assumes the attacker can profile the
//! publicly available Vitis AI library offline and therefore knows what byte
//! patterns each model leaves in memory — most usefully its name and library
//! path fragments.  [`SignatureDb`] holds those patterns;
//! [`SignatureDb::match_dump`] scores a scraped dump against every model.
//!
//! The database compiles every pattern of every signature into one
//! [`Matcher`] when it is built, so scoring a dump is a single streaming
//! pass over the scrape view: the automaton walks the view's segments in
//! order, carries its state across each seam, and reports which patterns
//! occurred; the per-model hit counts are a fold over that set.  The same
//! patterns are compiled into the Shift-And automaton of the decay-tolerant
//! scan ([`crate::analysis::reconstruct::fuzzy_identify_view`]), which walks
//! views the same way.

// Lint audit: indexes and slice bounds here are established by the
// surrounding length checks / loop invariants before use.
#![allow(clippy::indexing_slicing)]

use std::sync::{Arc, OnceLock};

use vitis_ai_sim::ModelKind;
use zynq_dram::{Matcher, ScrapeView};

use crate::analysis::reconstruct::ShiftAnd;
use crate::dump::MemoryDump;

/// Signature of one model: byte patterns whose presence indicates the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSignature {
    /// The model this signature identifies.
    pub model: ModelKind,
    /// Patterns searched for in the dump (primary name plus path fragments).
    pub patterns: Vec<String>,
}

/// A scored match of a dump against one model's signature.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelMatch {
    /// The matched model.
    pub model: ModelKind,
    /// Number of distinct patterns found.
    pub hits: usize,
    /// Total number of patterns in the signature.
    pub total_patterns: usize,
    /// Mean fuzzy-match distance (fraction of pattern bits missing from the
    /// dump, 0.0 = exact) when the match came from the decay-tolerant scan
    /// ([`crate::analysis::reconstruct::fuzzy_identify_view`]); `None` on the
    /// exact-matching path.
    pub fuzzy_distance: Option<f64>,
}

impl ModelMatch {
    /// Fraction of the signature's patterns that were found (0.0–1.0).
    pub fn confidence(&self) -> f64 {
        if self.total_patterns == 0 {
            return 0.0;
        }
        self.hits as f64 / self.total_patterns as f64
    }
}

/// Database of model signatures.
///
/// # Example
///
/// ```
/// use msa_core::SignatureDb;
/// use vitis_ai_sim::ModelKind;
///
/// let db = SignatureDb::standard();
/// assert!(db.signature(ModelKind::Resnet50Pt).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct SignatureDb {
    signatures: Vec<ModelSignature>,
    /// Every signature's patterns, in signature order, compiled once and
    /// shared by clones.
    matcher: Arc<Matcher>,
    /// The same patterns compiled for the decay-tolerant scan.
    fuzzy: Arc<ShiftAnd>,
}

impl SignatureDb {
    /// Builds the standard database covering the whole model zoo, using the
    /// patterns an attacker learns from the public library: the model name,
    /// its install path and its framework export path.
    ///
    /// The database is compiled on the first call in the process; later
    /// calls clone it and share its matcher, so building an attack pipeline
    /// per campaign cell costs no automaton construction.
    pub fn standard() -> Self {
        static STANDARD: OnceLock<SignatureDb> = OnceLock::new();
        STANDARD
            .get_or_init(|| {
                let signatures = ModelKind::all()
                    .into_iter()
                    .map(|model| ModelSignature {
                        model,
                        patterns: vec![
                            model.name().to_string(),
                            format!("vitis_ai_library/models/{}", model.name()),
                            format!("torchvision/{}", model.name()),
                        ],
                    })
                    .collect();
                SignatureDb::from_signatures(signatures)
            })
            .clone()
    }

    /// Builds a database from explicit signatures.
    pub fn from_signatures(signatures: Vec<ModelSignature>) -> Self {
        let patterns = || signatures.iter().flat_map(|sig| &sig.patterns);
        let matcher = Arc::new(Matcher::new(patterns()));
        let fuzzy = Arc::new(ShiftAnd::new(patterns()));
        SignatureDb {
            signatures,
            matcher,
            fuzzy,
        }
    }

    /// All signatures.
    pub fn signatures(&self) -> &[ModelSignature] {
        &self.signatures
    }

    /// Every signature's patterns, in signature order, compiled for the
    /// decay-tolerant scan.
    pub(crate) fn fuzzy_automaton(&self) -> &ShiftAnd {
        &self.fuzzy
    }

    /// The signature of a specific model, if present.
    pub fn signature(&self, model: ModelKind) -> Option<&ModelSignature> {
        self.signatures.iter().find(|s| s.model == model)
    }

    /// Scores `dump` against every signature, most-confident first.
    ///
    /// Only models with at least one hit are returned.
    pub fn match_dump(&self, dump: &MemoryDump) -> Vec<ModelMatch> {
        self.match_view(&dump.as_view())
    }

    /// [`SignatureDb::match_dump`] over a borrowed [`ScrapeView`]: one pass
    /// of the compiled matcher over the view's segments, without
    /// materializing the dump (the dump form delegates here).
    pub fn match_view(&self, view: &ScrapeView<'_>) -> Vec<ModelMatch> {
        let mut found = self.matcher.scan(view).into_iter();
        let mut matches: Vec<ModelMatch> = self
            .signatures
            .iter()
            .map(|sig| {
                let hits = found
                    .by_ref()
                    .take(sig.patterns.len())
                    .filter(|&hit| hit)
                    .count();
                ModelMatch {
                    model: sig.model,
                    hits,
                    total_patterns: sig.patterns.len(),
                    fuzzy_distance: None,
                }
            })
            .filter(|m| m.hits > 0)
            .collect();
        rank(&mut matches);
        matches
    }

    /// The single best match, if any signature hit at all.
    pub fn best_match(&self, dump: &MemoryDump) -> Option<ModelMatch> {
        self.match_dump(dump).into_iter().next()
    }

    /// The single best match over a borrowed view, if any signature hit.
    pub fn best_match_view(&self, view: &ScrapeView<'_>) -> Option<ModelMatch> {
        self.match_view(view).into_iter().next()
    }
}

/// Orders matches most-confident first, then by hit count.
fn rank(matches: &mut [ModelMatch]) {
    matches.sort_by(|a, b| {
        b.confidence()
            .partial_cmp(&a.confidence())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| b.hits.cmp(&a.hits))
    });
}

/// Two databases are equal when their signatures are: the matcher is a
/// function of them.
impl PartialEq for SignatureDb {
    fn eq(&self, other: &Self) -> bool {
        self.signatures == other.signatures
    }
}

impl Eq for SignatureDb {}

impl Default for SignatureDb {
    fn default() -> Self {
        SignatureDb::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zynq_dram::PhysAddr;
    use zynq_mmu::VirtAddr;

    fn dump_with(content: &[u8]) -> MemoryDump {
        MemoryDump::from_contiguous(VirtAddr::new(0), PhysAddr::new(0), content.to_vec())
    }

    #[test]
    fn standard_db_covers_the_zoo() {
        let db = SignatureDb::standard();
        assert_eq!(db.signatures().len(), ModelKind::all().len());
        for model in ModelKind::all() {
            let sig = db.signature(model).unwrap();
            assert!(sig.patterns.iter().any(|p| p == model.name()));
        }
        assert_eq!(SignatureDb::default(), db);
    }

    #[test]
    fn match_scores_hits_and_sorts_by_confidence() {
        let db = SignatureDb::standard();
        let dump = dump_with(
            b"...vitis_ai_library/models/resnet50_pt/resnet50_pt.xmodel...torchvision/resnet50_pt...",
        );
        let matches = db.match_dump(&dump);
        assert!(!matches.is_empty());
        assert_eq!(matches[0].model, ModelKind::Resnet50Pt);
        assert_eq!(matches[0].hits, 3);
        assert_eq!(matches[0].confidence(), 1.0);
        assert_eq!(db.best_match(&dump).unwrap().model, ModelKind::Resnet50Pt);
    }

    #[test]
    fn unrelated_dump_matches_nothing() {
        let db = SignatureDb::standard();
        let dump = dump_with(&[0u8; 512]);
        assert!(db.match_dump(&dump).is_empty());
        assert!(db.best_match(&dump).is_none());
    }

    #[test]
    fn partial_hits_have_lower_confidence() {
        let db = SignatureDb::standard();
        // Only the bare model name, not the paths.
        let dump = dump_with(b"....squeezenet....");
        let best = db.best_match(&dump).unwrap();
        assert_eq!(best.model, ModelKind::SqueezeNet);
        assert_eq!(best.hits, 1);
        assert!(best.confidence() < 1.0);
        assert!(best.confidence() > 0.0);
    }

    #[test]
    fn ambiguous_dump_prefers_more_complete_signature() {
        let db = SignatureDb::standard();
        let dump = dump_with(
            b"vitis_ai_library/models/yolov3/yolov3.xmodel ... mobilenet_v2 mentioned once",
        );
        let matches = db.match_dump(&dump);
        assert_eq!(matches[0].model, ModelKind::YoloV3);
        assert!(matches.iter().any(|m| m.model == ModelKind::MobileNetV2));
    }

    #[test]
    fn custom_database_and_edge_cases() {
        let db = SignatureDb::from_signatures(vec![ModelSignature {
            model: ModelKind::Vgg16,
            patterns: vec![],
        }]);
        let dump = dump_with(b"vgg16");
        // A signature with no patterns can never match.
        assert!(db.match_dump(&dump).is_empty());
        assert_eq!(
            ModelMatch {
                model: ModelKind::Vgg16,
                hits: 0,
                total_patterns: 0,
                fuzzy_distance: None
            }
            .confidence(),
            0.0
        );
        // Needle longer than the dump is handled.
        let tiny = dump_with(b"x");
        assert!(SignatureDb::standard().match_dump(&tiny).is_empty());
    }

    /// The per-pattern reference `match_view` is checked against: every
    /// pattern searched on its own with `windows().position` over an owned
    /// copy of the view.
    fn naive_match_view(db: &SignatureDb, view: &ScrapeView<'_>) -> Vec<ModelMatch> {
        let bytes = view.to_vec();
        let occurs = |p: &[u8]| !p.is_empty() && bytes.windows(p.len()).any(|w| w == p);
        let mut matches: Vec<ModelMatch> = db
            .signatures()
            .iter()
            .map(|sig| ModelMatch {
                model: sig.model,
                hits: sig.patterns.iter().filter(|p| occurs(p.as_bytes())).count(),
                total_patterns: sig.patterns.len(),
                fuzzy_distance: None,
            })
            .filter(|m| m.hits > 0)
            .collect();
        rank(&mut matches);
        matches
    }

    #[test]
    fn one_pass_scan_matches_the_per_pattern_reference_on_every_zoo_dump() {
        use crate::attack::ScrapeMode;
        use crate::scrape::scrape_heap_view;
        use crate::translate::capture_heap_translation;
        use petalinux_sim::{BoardConfig, Kernel, UserId};
        use vitis_ai_sim::{DpuRunner, Image};
        use xsdb::DebugSession;

        let db = SignatureDb::standard();
        for model in ModelKind::all() {
            let mut kernel = Kernel::boot(BoardConfig::zcu104());
            let (w, h) = model.input_dims();
            let launched = DpuRunner::new(model)
                .with_input(Image::corrupted(w, h))
                .launch(&mut kernel, UserId::new(0))
                .expect("victim launches");
            let mut dbg = DebugSession::connect(UserId::new(1));
            let translation =
                capture_heap_translation(&mut dbg, &kernel, launched.pid()).expect("translation");
            launched.terminate(&mut kernel).expect("victim terminates");
            for mode in [ScrapeMode::ContiguousRange, ScrapeMode::PerPage] {
                let heap = scrape_heap_view(&mut dbg, &kernel, &translation, mode)
                    .expect("scrape")
                    .expect("perfect remanence allows zero-copy views");
                let matches = db.match_view(heap.view());
                assert_eq!(
                    matches,
                    naive_match_view(&db, heap.view()),
                    "{model} {mode:?}"
                );
                assert_eq!(matches[0].model, model);
            }
        }
    }

    #[test]
    fn overlapping_prefix_and_suffix_patterns_match_the_reference() {
        let patterns = |words: &[&str]| words.iter().map(|w| w.to_string()).collect();
        let db = SignatureDb::from_signatures(vec![
            ModelSignature {
                model: ModelKind::Vgg16,
                patterns: patterns(&["vgg16", "torchvision/vgg16", "vgg", "16", ""]),
            },
            ModelSignature {
                model: ModelKind::Resnet50Pt,
                patterns: patterns(&["resnet50", "resnet50_pt", "net50_pt", "vgg16"]),
            },
            ModelSignature {
                model: ModelKind::SqueezeNet,
                patterns: patterns(&["squeezenet", "torchvision/squeezenet/too-long"]),
            },
        ]);
        let mut state = 0x5EED_u64;
        for round in 0..64 {
            let mut bytes: Vec<u8> = (0..300)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1);
                    b"tv/g16resnt_p"[usize::try_from(state >> 60).expect("4 bits") % 13]
                })
                .collect();
            let plant: &[&[u8]] = &[b"torchvision/vgg16", b"resnet50_pt", b"squeezenet"];
            for (k, p) in plant
                .iter()
                .enumerate()
                .filter(|(k, _)| round >> k & 1 == 1)
            {
                let at = 20 + 90 * k + round % 7;
                bytes[at..at + p.len()].copy_from_slice(p);
            }
            for unit in [4096, 16, 1] {
                let mut view = ScrapeView::with_unit(unit);
                view.set_head(&bytes[..round % 5]);
                for chunk in bytes[round % 5..].chunks(unit) {
                    view.push_chunk(chunk);
                }
                assert_eq!(
                    db.match_view(&view),
                    naive_match_view(&db, &view),
                    "round {round}"
                );
            }
        }
    }

    #[test]
    fn databases_with_more_than_sixty_four_patterns_count_every_hit() {
        let signatures: Vec<ModelSignature> = ModelKind::all()
            .into_iter()
            .map(|model| ModelSignature {
                model,
                patterns: (0..12).map(|i| format!("{}#{i}", model.name())).collect(),
            })
            .collect();
        let db = SignatureDb::from_signatures(signatures);
        let text: String = ModelKind::all()
            .into_iter()
            .enumerate()
            .flat_map(|(k, model)| (0..k + 1).map(move |i| format!("{}#{i} ", model.name())))
            .collect();
        let dump = dump_with(text.as_bytes());
        let matches = db.match_dump(&dump);
        assert_eq!(matches, naive_match_view(&db, &dump.as_view()));
        assert_eq!(matches.len(), ModelKind::all().len());
        assert_eq!(matches[0].hits, ModelKind::all().len());
        assert_eq!(db, SignatureDb::from_signatures(db.signatures().to_vec()));
    }
}
