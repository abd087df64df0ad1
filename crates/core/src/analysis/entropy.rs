//! Dump characterization: classifying the regions of a scraped heap.
//!
//! Before an analyst knows which model ran, a coarse map of the dump is
//! already useful: which parts are text (library paths, metadata), which are
//! high-entropy blobs (weights), which are a repeated filler value (the
//! corrupted-image marker, zero pages) and which look like natural image
//! data.  This module computes per-window byte statistics and classifies each
//! window, giving the "characterizing terminated processes" view the paper's
//! second contribution describes, independent of the signature database.

// Lint audit: address arithmetic here is bounds-checked against the
// DRAM window before any narrowing cast or direct index; offsets are
// derived from validated window-relative coordinates.
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use zynq_dram::ScrapeView;

use crate::dump::MemoryDump;

/// Default classification window size in bytes.
pub const DEFAULT_WINDOW: usize = 1024;

/// Coarse content class of one window of the dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionClass {
    /// Entirely zero bytes (unused or scrubbed memory).
    Zero,
    /// One non-zero byte value repeated (e.g. the `0xFF` corrupted-image
    /// marker or the `0x55` profiling sentinel).
    Filler {
        /// The repeated byte value.
        value: u8,
    },
    /// Mostly printable ASCII: strings, paths, serialized metadata.
    Text,
    /// High-entropy binary data: weight blobs, compressed or random content.
    HighEntropy,
    /// Everything else: structured binary data, natural images, pointers.
    Structured,
}

impl std::fmt::Display for RegionClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionClass::Zero => write!(f, "zero"),
            RegionClass::Filler { value } => write!(f, "filler(0x{value:02x})"),
            RegionClass::Text => write!(f, "text"),
            RegionClass::HighEntropy => write!(f, "high-entropy"),
            RegionClass::Structured => write!(f, "structured"),
        }
    }
}

/// One classified window of the dump.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Region {
    /// Byte offset of the window within the dump.
    pub offset: u64,
    /// Length of the window in bytes.
    pub len: usize,
    /// Shannon entropy of the window in bits per byte (0–8).
    pub entropy: f64,
    /// Fraction of printable ASCII bytes.
    pub printable_fraction: f64,
    /// The assigned class.
    pub class: RegionClass,
}

/// Shannon entropy of a byte slice in bits per byte.
///
/// Returns 0.0 for an empty slice.
pub fn shannon_entropy(bytes: &[u8]) -> f64 {
    if bytes.is_empty() {
        return 0.0;
    }
    let mut counts = [0usize; 256];
    for &b in bytes {
        counts[b as usize] += 1;
    }
    let len = bytes.len() as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / len;
            -p * p.log2()
        })
        .sum()
}

fn classify_window(bytes: &[u8]) -> (f64, f64, RegionClass) {
    let entropy = shannon_entropy(bytes);
    let printable = bytes
        .iter()
        .filter(|&&b| (0x20..0x7f).contains(&b) || b == b'\n' || b == b'\t')
        .count() as f64
        / bytes.len().max(1) as f64;

    let first = bytes.first().copied().unwrap_or(0);
    let uniform = bytes.iter().all(|&b| b == first);
    let class = if uniform && first == 0 {
        RegionClass::Zero
    } else if uniform {
        RegionClass::Filler { value: first }
    } else if printable > 0.85 {
        RegionClass::Text
    } else if entropy > 7.2 {
        RegionClass::HighEntropy
    } else {
        RegionClass::Structured
    };
    (entropy, printable, class)
}

/// Classifies the dump in windows of `window` bytes (the last window may be
/// shorter).
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn classify_regions(dump: &MemoryDump, window: usize) -> Vec<Region> {
    classify_regions_view(&dump.as_view(), window)
}

/// [`classify_regions`] over a borrowed [`ScrapeView`]: windows that lie
/// inside one view segment are classified in place; only windows straddling
/// a segment boundary go through a small reused scratch buffer (the dump
/// form delegates here).
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn classify_regions_view(view: &ScrapeView<'_>, window: usize) -> Vec<Region> {
    assert!(window > 0, "window size must be non-zero");
    let mut regions = Vec::with_capacity(view.len().div_ceil(window));
    let mut scratch = vec![0u8; window];
    let mut offset = 0usize;
    while offset < view.len() {
        let len = window.min(view.len() - offset);
        let (entropy, printable_fraction, class) = match view.try_borrow(offset, len) {
            Some(slice) => classify_window(slice),
            None => {
                view.copy_into(offset, &mut scratch[..len]);
                classify_window(&scratch[..len])
            }
        };
        regions.push(Region {
            offset: offset as u64,
            len,
            entropy,
            printable_fraction,
            class,
        });
        offset += len;
    }
    regions
}

/// Summary of a classified dump: how many bytes fall in each class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionSummary {
    /// Bytes classified as zero.
    pub zero: u64,
    /// Bytes classified as repeated filler.
    pub filler: u64,
    /// Bytes classified as text.
    pub text: u64,
    /// Bytes classified as high-entropy blobs.
    pub high_entropy: u64,
    /// Bytes classified as other structured data.
    pub structured: u64,
}

impl RegionSummary {
    /// Total classified bytes.
    pub fn total(&self) -> u64 {
        self.zero + self.filler + self.text + self.high_entropy + self.structured
    }

    /// Fraction of the dump that still carries non-zero content — a quick
    /// residue indicator a triage pass can compute without any model
    /// knowledge.
    pub fn non_zero_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (total - self.zero) as f64 / total as f64
    }
}

/// Classifies the dump with the default window and aggregates per-class byte
/// counts.
pub fn summarize(dump: &MemoryDump) -> RegionSummary {
    summarize_view(&dump.as_view())
}

/// [`summarize`] over a borrowed [`ScrapeView`].
pub fn summarize_view(view: &ScrapeView<'_>) -> RegionSummary {
    let mut summary = RegionSummary::default();
    for region in classify_regions_view(view, DEFAULT_WINDOW) {
        let len = region.len as u64;
        match region.class {
            RegionClass::Zero => summary.zero += len,
            RegionClass::Filler { .. } => summary.filler += len,
            RegionClass::Text => summary.text += len,
            RegionClass::HighEntropy => summary.high_entropy += len,
            RegionClass::Structured => summary.structured += len,
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use zynq_dram::PhysAddr;
    use zynq_mmu::VirtAddr;

    fn dump_of(bytes: Vec<u8>) -> MemoryDump {
        MemoryDump::from_contiguous(VirtAddr::new(0), PhysAddr::new(0), bytes)
    }

    #[test]
    fn entropy_extremes() {
        assert_eq!(shannon_entropy(&[]), 0.0);
        assert_eq!(shannon_entropy(&[7u8; 128]), 0.0);
        // A uniform distribution over all byte values has 8 bits of entropy.
        let uniform: Vec<u8> = (0..=255u8).collect();
        assert!((shannon_entropy(&uniform) - 8.0).abs() < 1e-9);
        // Two equally likely values: exactly 1 bit.
        let two: Vec<u8> = [0u8, 255].repeat(64).to_vec();
        assert!((shannon_entropy(&two) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn classifies_synthetic_regions_correctly() {
        let mut bytes = vec![0u8; 1024]; // zero window
        bytes.extend_from_slice(&[0xFF; 1024]); // filler window
        bytes.extend_from_slice(
            "usr/share/vitis_ai_library/models/resnet50_pt/ "
                .repeat(22)
                .as_bytes(),
        ); // text window (1034 bytes → spills, keep aligned below)
        bytes.truncate(3 * 1024);
        // High-entropy window from a xorshift stream.
        let weights = vitis_ai_sim::weights::quantized_weights(vitis_ai_sim::ModelKind::Vgg16);
        bytes.extend_from_slice(&weights[..1024]);

        let regions = classify_regions(&dump_of(bytes), 1024);
        assert_eq!(regions.len(), 4);
        assert_eq!(regions[0].class, RegionClass::Zero);
        assert_eq!(regions[1].class, RegionClass::Filler { value: 0xFF });
        assert_eq!(regions[2].class, RegionClass::Text);
        assert!(regions[2].printable_fraction > 0.85);
        assert_eq!(regions[3].class, RegionClass::HighEntropy);
        assert!(regions[3].entropy > 7.2);
        assert_eq!(regions[1].class.to_string(), "filler(0xff)");
    }

    #[test]
    fn summary_aggregates_bytes_per_class() {
        let mut bytes = vec![0u8; 2048];
        bytes.extend_from_slice(&[0x55; 1024]);
        let summary = summarize(&dump_of(bytes));
        assert_eq!(summary.zero, 2048);
        assert_eq!(summary.filler, 1024);
        assert_eq!(summary.total(), 3072);
        assert!((summary.non_zero_fraction() - 1024.0 / 3072.0).abs() < 1e-9);
        assert_eq!(RegionSummary::default().non_zero_fraction(), 0.0);
    }

    #[test]
    fn scraped_resnet_dump_has_the_expected_region_mix() {
        use petalinux_sim::{BoardConfig, Kernel, UserId};
        use vitis_ai_sim::{DpuRunner, Image, ModelKind};
        use xsdb::DebugSession;

        use crate::attack::ScrapeMode;
        use crate::scrape::scrape_heap;
        use crate::translate::capture_heap_translation;

        let mut kernel = Kernel::boot(BoardConfig::tiny_for_tests());
        let launched = DpuRunner::new(ModelKind::Resnet50Pt)
            .with_input(Image::corrupted(224, 224))
            .launch(&mut kernel, UserId::new(0))
            .unwrap();
        let mut dbg = DebugSession::connect(UserId::new(1));
        let translation = capture_heap_translation(&mut dbg, &kernel, launched.pid()).unwrap();
        launched.terminate(&mut kernel).unwrap();
        let dump =
            scrape_heap(&mut dbg, &kernel, &translation, ScrapeMode::ContiguousRange).unwrap();

        let summary = summarize(&dump);
        // The corrupted image dominates as filler; the weight blob shows up as
        // high entropy; residue is clearly non-zero.
        assert!(summary.filler as usize >= 100 * 1024);
        assert!(summary.high_entropy > 0);
        assert!(summary.non_zero_fraction() > 0.5);

        // A sanitized dump, by contrast, is all zero.
        let scrubbed = dump_of(vec![0u8; 16 * 1024]);
        let clean = summarize(&scrubbed);
        assert_eq!(clean.non_zero_fraction(), 0.0);
        assert_eq!(clean.zero, 16 * 1024);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_is_rejected() {
        let _ = classify_regions(&dump_of(vec![1, 2, 3]), 0);
    }

    proptest! {
        #[test]
        fn prop_entropy_is_bounded(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let e = shannon_entropy(&bytes);
            prop_assert!((0.0..=8.0).contains(&e));
        }

        #[test]
        fn prop_regions_cover_the_whole_dump(bytes in proptest::collection::vec(any::<u8>(), 1..4096), window in 1usize..512) {
            let dump = dump_of(bytes.clone());
            let regions = classify_regions(&dump, window);
            let covered: usize = regions.iter().map(|r| r.len).sum();
            prop_assert_eq!(covered, bytes.len());
            // Offsets are strictly increasing and window-aligned.
            for (i, region) in regions.iter().enumerate() {
                prop_assert_eq!(region.offset, (i * window) as u64);
            }
        }
    }
}
