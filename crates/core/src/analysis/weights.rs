//! Weight-fingerprint identification: matching the scraped weight blob
//! against the public model library.
//!
//! String-based identification (Step 4.a) fails if the runtime's path strings
//! happen to be paged out, truncated or partially overwritten.  Because the
//! adversary has the same public Vitis AI library the victim uses (paper
//! §II), it can also fingerprint the *weight blobs* themselves: every model's
//! weights are public constants, so finding a long match between dump content
//! and a known blob identifies the model — and locates its weight region —
//! without any string evidence.

// Lint audit: address arithmetic here is bounds-checked against the
// DRAM window before any narrowing cast or direct index; offsets are
// derived from validated window-relative coordinates.
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use vitis_ai_sim::{weights, ModelKind};
use zynq_dram::ScrapeView;

use crate::dump::MemoryDump;

/// Number of bytes of each known weight blob used as the search probe.
pub const PROBE_LEN: usize = 64;

/// A weight-fingerprint match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightMatch {
    /// The model whose public weights matched.
    pub model: ModelKind,
    /// Heap-relative offset at which the weight blob starts in the dump.
    pub weights_offset: u64,
    /// Fraction of the full blob that matches the dump at that offset.
    pub blob_match_fraction: f64,
}

/// Searches the dump for every zoo model's weight fingerprint.
///
/// Matches are ordered by decreasing match fraction.  A model is reported
/// only if its probe (the first [`PROBE_LEN`] bytes of its public weights)
/// occurs in the dump.
pub fn match_weights(dump: &MemoryDump) -> Vec<WeightMatch> {
    match_weights_view(&dump.as_view())
}

/// [`match_weights`] over a borrowed [`ScrapeView`]: the probes are located
/// with the view's segment-wise search and the match fraction counted in
/// place, no owned copy of the dump required (the dump form delegates here).
pub fn match_weights_view(view: &ScrapeView<'_>) -> Vec<WeightMatch> {
    let mut matches = Vec::new();
    for model in ModelKind::all() {
        let known = weights::quantized_weights(model);
        let probe = &known[..known.len().min(PROBE_LEN)];
        if probe.is_empty() || probe.len() > view.len() {
            continue;
        }
        let Some(offset) = view.find(probe) else {
            continue;
        };
        let available = view.len() - offset;
        let matching = (0..known.len().min(available))
            .filter(|&i| view.byte_at(offset + i) == known[i])
            .count();
        matches.push(WeightMatch {
            model,
            weights_offset: offset as u64,
            blob_match_fraction: matching as f64 / known.len() as f64,
        });
    }
    matches.sort_by(|a, b| {
        b.blob_match_fraction
            .partial_cmp(&a.blob_match_fraction)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    matches
}

/// The single best weight-fingerprint match, if any.
pub fn identify_model_by_weights(dump: &MemoryDump) -> Option<WeightMatch> {
    match_weights(dump).into_iter().next()
}

/// Extracts the victim's weight blob from the dump given a weight match,
/// returning as many bytes as the dump still holds.
///
/// Both bounds are clamped to the dump: a match whose recorded offset lies
/// at or beyond the dump edge (possible when the match came from a larger
/// dump, or the dump was truncated since) yields a short or empty blob
/// instead of panicking.
pub fn extract_weights(dump: &MemoryDump, matched: &WeightMatch) -> Vec<u8> {
    let full_len = matched.model.simulated_param_count() as usize;
    let start = (matched.weights_offset as usize).min(dump.len());
    let end = start.saturating_add(full_len).min(dump.len());
    dump.as_bytes()[start..end].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use petalinux_sim::{BoardConfig, Kernel, UserId};
    use vitis_ai_sim::{DpuRunner, Image};
    use xsdb::DebugSession;
    use zynq_dram::PhysAddr;
    use zynq_mmu::VirtAddr;

    use crate::attack::ScrapeMode;
    use crate::scrape::scrape_heap;
    use crate::translate::capture_heap_translation;

    fn scraped_dump(model: ModelKind) -> MemoryDump {
        let mut kernel = Kernel::boot(BoardConfig::tiny_for_tests());
        let launched = DpuRunner::new(model)
            .with_input(Image::corrupted(model.input_dims().0, model.input_dims().1))
            .launch(&mut kernel, UserId::new(0))
            .unwrap();
        let mut dbg = DebugSession::connect(UserId::new(1));
        let translation = capture_heap_translation(&mut dbg, &kernel, launched.pid()).unwrap();
        launched.terminate(&mut kernel).unwrap();
        scrape_heap(&mut dbg, &kernel, &translation, ScrapeMode::ContiguousRange).unwrap()
    }

    #[test]
    fn weight_fingerprint_identifies_the_victim_model() {
        let dump = scraped_dump(ModelKind::Resnet50Pt);
        let best = identify_model_by_weights(&dump).expect("weights found");
        assert_eq!(best.model, ModelKind::Resnet50Pt);
        assert!(best.blob_match_fraction > 0.99);

        // The extracted blob matches the public weights byte for byte.
        let extracted = extract_weights(&dump, &best);
        assert_eq!(extracted, weights::quantized_weights(ModelKind::Resnet50Pt));
    }

    #[test]
    fn fingerprint_works_even_when_strings_are_redacted() {
        let dump = scraped_dump(ModelKind::MobileNetV2);
        // Simulate string residue being overwritten: blank every printable
        // ASCII byte ahead of the weight blob (the region where the container
        // strings live), leaving the weights themselves untouched.
        let weights_start = identify_model_by_weights(&dump)
            .expect("clean dump fingerprints")
            .weights_offset as usize;
        let mut bytes = dump.as_bytes().to_vec();
        for b in bytes.iter_mut().take(weights_start) {
            if (0x20..0x7f).contains(b) {
                *b = 0;
            }
        }
        let redacted =
            MemoryDump::from_contiguous(dump.heap_start(), PhysAddr::new(0x6_0000_0000), bytes);
        // String identification now fails…
        assert!(crate::analysis::strings::identify_model(
            &redacted,
            &crate::signature::SignatureDb::standard()
        )
        .is_none());
        // …but the weight fingerprint still names the model.
        let best = identify_model_by_weights(&redacted).expect("weights still present");
        assert_eq!(best.model, ModelKind::MobileNetV2);
    }

    #[test]
    fn sanitized_dump_has_no_weight_matches() {
        let empty =
            MemoryDump::from_contiguous(VirtAddr::new(0), PhysAddr::new(0), vec![0u8; 64 * 1024]);
        assert!(match_weights(&empty).is_empty());
        assert!(identify_model_by_weights(&empty).is_none());
    }

    #[test]
    fn partial_blob_reports_reduced_match_fraction() {
        // Plant only the first quarter of squeezenet's weights in the dump.
        let known = weights::quantized_weights(ModelKind::SqueezeNet);
        let mut bytes = vec![0u8; 512];
        bytes.extend_from_slice(&known[..known.len() / 4]);
        bytes.extend(std::iter::repeat_n(0u8, known.len()));
        let dump = MemoryDump::from_contiguous(VirtAddr::new(0), PhysAddr::new(0), bytes);
        let best = identify_model_by_weights(&dump).expect("probe matches");
        assert_eq!(best.model, ModelKind::SqueezeNet);
        assert_eq!(best.weights_offset, 512);
        assert!(best.blob_match_fraction < 0.5);
        assert!(best.blob_match_fraction > 0.2);
        // Extraction is clamped to what the dump holds.
        let extracted = extract_weights(&dump, &best);
        assert!(extracted.len() <= known.len());
    }

    #[test]
    fn extraction_at_the_dump_edge_is_clamped_not_panicking() {
        // Regression: the slice range used to be clamped only on one side,
        // so a match offset at or past the dump edge panicked with
        // `start > end`.  A match can legitimately outlive its dump (e.g.
        // recorded from a longer profiling dump, then applied to a truncated
        // capture).
        let dump = MemoryDump::from_contiguous(VirtAddr::new(0), PhysAddr::new(0), vec![1u8; 64]);
        let past_end = WeightMatch {
            model: ModelKind::SqueezeNet,
            weights_offset: 1024,
            blob_match_fraction: 1.0,
        };
        assert!(extract_weights(&dump, &past_end).is_empty());
        let at_end = WeightMatch {
            weights_offset: dump.len() as u64,
            ..past_end
        };
        assert!(extract_weights(&dump, &at_end).is_empty());
        let near_end = WeightMatch {
            weights_offset: dump.len() as u64 - 8,
            ..past_end
        };
        assert_eq!(extract_weights(&dump, &near_end), vec![1u8; 8]);
        // The empty dump is the degenerate edge of the same bug.
        assert!(extract_weights(&MemoryDump::empty(VirtAddr::new(0)), &past_end).is_empty());
    }

    #[test]
    fn matches_are_sorted_by_match_fraction() {
        // A dump containing two different models' probes: full blob of one,
        // probe-only of the other.
        let full = weights::quantized_weights(ModelKind::SqueezeNet);
        let probe_only = &weights::quantized_weights(ModelKind::YoloV3)[..PROBE_LEN];
        let mut bytes = full.to_vec();
        bytes.extend_from_slice(probe_only);
        let dump = MemoryDump::from_contiguous(VirtAddr::new(0), PhysAddr::new(0), bytes);
        let matches = match_weights(&dump);
        assert!(matches.len() >= 2);
        assert_eq!(matches[0].model, ModelKind::SqueezeNet);
        assert!(matches[0].blob_match_fraction > matches[1].blob_match_fraction);
    }
}
