//! Identity tests for the decay-path analysis kernels.
//!
//! `repair_image` decides eight bytes per word and iterates to its fixpoint
//! over a dirty set (after one full pass only changed bytes and their
//! neighbors are revisited), `fuzzy_identify_view` scores every signature
//! pattern in one Shift-And pass over the view's segments that skips kill
//! bytes, and `marker_runs_view` probes one byte per `min_len`.  The
//! `reference` module below keeps the straightforward implementations they
//! replaced — every pass revisits every byte of a cloned image one byte at
//! a time, every pattern runs its own sliding `fuzzy_scan` over a copy of
//! the view, and the marker scan groups a copy of the view into runs — so
//! all three can be compared output for output, down to the bits of
//! `fuzzy_distance`, on seeded images, damage patterns, views and
//! segmentations.  The properties at the end check that repair and fuzzy
//! identification never panic on arbitrary input (the marker scan's
//! property sits beside it in `analysis/marker.rs`).

#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use fpga_msa::dram::ScrapeView;
use fpga_msa::msa::analysis::marker::{marker_runs_view, CORRUPTED_MARKER, SENTINEL_MARKER};
use fpga_msa::msa::analysis::reconstruct::{fuzzy_identify_view, fuzzy_scan, repair_image};
use fpga_msa::msa::signature::ModelSignature;
use fpga_msa::msa::{ModelMatch, SignatureDb};
use fpga_msa::vitis::{Image, ModelKind};
use proptest::prelude::*;

mod reference {
    use fpga_msa::dram::ScrapeView;
    use fpga_msa::msa::analysis::marker::MarkerRun;
    use fpga_msa::msa::analysis::reconstruct::{MIN_BIT_EVIDENCE, MIN_EXACT_BYTES};
    use fpga_msa::msa::{ModelMatch, SignatureDb};
    use fpga_msa::vitis::Image;

    const MAX_REPAIR_PASSES: usize = 4;

    /// Maximal runs of `value` of at least `min_len` bytes, from a copy of
    /// the view cut into runs of equal bytes.
    pub fn marker_runs(view: &ScrapeView<'_>, value: u8, min_len: u64) -> Vec<MarkerRun> {
        let mut runs = Vec::new();
        let mut offset = 0u64;
        for run in view.to_vec().chunk_by(|a, b| a == b) {
            let len = run.len() as u64;
            if run[0] == value && len >= min_len {
                runs.push(MarkerRun { offset, len });
            }
            offset += len;
        }
        runs
    }

    pub fn fuzzy_scan(bytes: &[u8], pattern: &[u8]) -> Option<f64> {
        if pattern.is_empty() || bytes.len() < pattern.len() {
            return None;
        }
        let total_bits: u32 = pattern.iter().map(|p| p.count_ones()).sum();
        if total_bits == 0 {
            return None;
        }
        let mut nonzero_in_window = bytes[..pattern.len()].iter().filter(|&&b| b != 0).count();
        let mut best: Option<f64> = None;
        for start in 0..=bytes.len() - pattern.len() {
            if start > 0 {
                nonzero_in_window += usize::from(bytes[start + pattern.len() - 1] != 0);
            }
            if nonzero_in_window >= MIN_EXACT_BYTES {
                if let Some(distance) = score_window(&bytes[start..start + pattern.len()], pattern)
                {
                    if best.is_none_or(|b| distance < b) {
                        best = Some(distance);
                    }
                    if distance == 0.0 {
                        return best;
                    }
                }
            }
            nonzero_in_window -= usize::from(bytes[start] != 0);
        }
        best
    }

    fn score_window(window: &[u8], pattern: &[u8]) -> Option<f64> {
        let mut exact_nonzero = 0usize;
        let mut surviving_bits = 0u32;
        let mut total_bits = 0u32;
        for (&w, &p) in window.iter().zip(pattern) {
            if w & !p != 0 {
                return None;
            }
            if w == p && p != 0 {
                exact_nonzero += 1;
            }
            surviving_bits += (w & p).count_ones();
            total_bits += p.count_ones();
        }
        let evidence = f64::from(surviving_bits) / f64::from(total_bits);
        if exact_nonzero < MIN_EXACT_BYTES || evidence < MIN_BIT_EVIDENCE {
            return None;
        }
        Some(1.0 - evidence)
    }

    pub fn fuzzy_identify_view(view: &ScrapeView<'_>, db: &SignatureDb) -> Option<ModelMatch> {
        let owned;
        let bytes: &[u8] = match view.try_borrow(0, view.len()) {
            Some(slice) => slice,
            None => {
                owned = view.to_vec();
                &owned
            }
        };
        let mut matches: Vec<ModelMatch> = db
            .signatures()
            .iter()
            .filter_map(|sig| {
                let distances: Vec<f64> = sig
                    .patterns
                    .iter()
                    .filter_map(|pattern| fuzzy_scan(bytes, pattern.as_bytes()))
                    .collect();
                if distances.is_empty() {
                    return None;
                }
                let mean = distances.iter().sum::<f64>() / distances.len() as f64;
                Some(ModelMatch {
                    model: sig.model,
                    hits: distances.len(),
                    total_patterns: sig.patterns.len(),
                    fuzzy_distance: Some(mean),
                })
            })
            .collect();
        matches.sort_by(|a, b| {
            b.confidence()
                .partial_cmp(&a.confidence())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    a.fuzzy_distance
                        .partial_cmp(&b.fuzzy_distance)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
        });
        matches.into_iter().next()
    }

    pub fn repair_image(image: &Image) -> Image {
        let width = image.width() as usize;
        let height = image.height() as usize;
        let mut pixels = image.as_bytes().to_vec();
        if width == 0 || height == 0 {
            return image.clone();
        }
        for _ in 0..MAX_REPAIR_PASSES {
            let previous = pixels.clone();
            for y in 0..height {
                for x in 0..width {
                    for channel in 0..3 {
                        let at = |x: usize, y: usize| previous[(y * width + x) * 3 + channel];
                        let mut neighbors = [0u8; 4];
                        let mut count = 0usize;
                        if x > 0 {
                            neighbors[count] = at(x - 1, y);
                            count += 1;
                        }
                        if x + 1 < width {
                            neighbors[count] = at(x + 1, y);
                            count += 1;
                        }
                        if y > 0 {
                            neighbors[count] = at(x, y - 1);
                            count += 1;
                        }
                        if y + 1 < height {
                            neighbors[count] = at(x, y + 1);
                            count += 1;
                        }
                        let own = at(x, y);
                        if let Some(repaired) = repair_byte(own, &neighbors[..count]) {
                            pixels[(y * width + x) * 3 + channel] = repaired;
                        }
                    }
                }
            }
            if pixels == previous {
                break;
            }
        }
        Image::reconstruct(image.width(), image.height(), &pixels)
            .expect("repair preserves dimensions")
    }

    fn repair_byte(own: u8, neighbors: &[u8]) -> Option<u8> {
        let nonzero: Vec<u8> = neighbors.iter().copied().filter(|&n| n != 0).collect();
        if nonzero.len() < 2 {
            return None;
        }
        if own == 0 {
            return nonzero
                .iter()
                .map(|&value| {
                    let votes = nonzero.iter().filter(|&&n| n == value).count();
                    (votes, value.count_ones(), value)
                })
                .filter(|&(votes, _, _)| votes >= 2)
                .max()
                .map(|(_, _, value)| value);
        }
        let mut consensus = 0u8;
        for bit in 0..8 {
            let votes = nonzero.iter().filter(|&&n| n >> bit & 1 == 1).count();
            if 2 * votes > nonzero.len() {
                consensus |= 1 << bit;
            }
        }
        (own & !consensus == 0 && own != consensus).then_some(consensus)
    }
}

/// Deterministic test randomness (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// `true` with probability `per_mille / 1000`.
    fn chance(&mut self, per_mille: u64) -> bool {
        self.below(1000) < per_mille
    }
}

/// How decay damaged an image or a planted pattern.
#[derive(Clone, Copy, Debug)]
enum Damage {
    /// Whole bytes read as zero (`Exponential`).
    Erased,
    /// Single bits cleared (`BitFlip`).
    Clipped,
    /// Both at once.
    Mixed,
}

fn damage(bytes: &mut [u8], kind: Damage, per_mille: u64, rng: &mut Rng) {
    for byte in bytes {
        if !rng.chance(per_mille) {
            continue;
        }
        let erase = match kind {
            Damage::Erased => true,
            Damage::Clipped => false,
            Damage::Mixed => rng.chance(500),
        };
        if erase {
            *byte = 0;
        } else {
            *byte &= !(1 << rng.below(8));
        }
    }
}

fn assert_repair_identical(image: &Image, label: &str) {
    let repaired = repair_image(image);
    let expected = reference::repair_image(image);
    assert_eq!(
        (repaired.width(), repaired.height()),
        (expected.width(), expected.height()),
        "{label}: dimensions"
    );
    if let Some(at) = repaired
        .as_bytes()
        .iter()
        .zip(expected.as_bytes())
        .position(|(a, b)| a != b)
    {
        panic!("{label}: repaired images differ first at byte {at}");
    }
}

#[test]
fn repair_matches_the_full_pass_reference_on_damaged_images() {
    let mut rng = Rng(0xDECA_7001);
    for (w, h) in [(16, 16), (37, 23), (5, 64), (64, 3)] {
        let truths = [
            ("corrupted", Image::corrupted(w, h)),
            ("solid", Image::solid(w, h, [0x12, 0xF0, 0x81])),
            ("sentinel", Image::profiling_sentinel(w, h)),
            ("photo", Image::sample_photo(w, h)),
        ];
        for (name, truth) in &truths {
            for kind in [Damage::Erased, Damage::Clipped, Damage::Mixed] {
                for per_mille in [0, 30, 200, 400, 700, 1000] {
                    let mut bytes = truth.as_bytes().to_vec();
                    damage(&mut bytes, kind, per_mille, &mut rng);
                    let damaged = Image::from_raw(w, h, bytes);
                    assert_repair_identical(
                        &damaged,
                        &format!("{name} {w}x{h} {kind:?} {per_mille}‰"),
                    );
                }
            }
        }
    }
}

#[test]
fn repair_matches_the_reference_at_the_victim_input_sizes() {
    // The zoo's input widths, damaged the way the decay workloads damage
    // them, so the dirty-set passes run on realistic row strides (the
    // 416-wide image keeps fewer rows: the reference is slow unoptimized).
    let mut rng = Rng(0x1416_0224);
    for (w, h) in [(224, 224), (416, 96)] {
        for (kind, per_mille) in [(Damage::Erased, 400), (Damage::Clipped, 650)] {
            let mut bytes = Image::corrupted(w, h).into_bytes();
            damage(&mut bytes, kind, per_mille, &mut rng);
            let damaged = Image::from_raw(w, h, bytes);
            assert_repair_identical(&damaged, &format!("corrupted {w}x{h} {kind:?}"));
        }
    }
}

#[test]
fn repair_matches_the_reference_on_random_and_degenerate_images() {
    let mut rng = Rng(0x0DD_5123);
    // Empty, single-row, single-column and tiny images.
    for (w, h) in [
        (0, 0),
        (0, 7),
        (7, 0),
        (1, 1),
        (1, 9),
        (9, 1),
        (2, 2),
        (1, 64),
        (64, 1),
        (3, 2),
    ] {
        for per_mille in [0, 300, 1000] {
            // Few distinct values, so exact neighbor agreement is common,
            // and ties between two agreeing pairs are too (0x80 outranks
            // 0x0F by value but not by surviving bits).
            let bytes: Vec<u8> = (0..w * h * 3)
                .map(|_| [0u8, 0xFF, 0x55, 0xF0, 0x80, 0x0F][rng.below(6) as usize])
                .collect();
            let mut damaged = bytes.clone();
            damage(&mut damaged, Damage::Mixed, per_mille, &mut rng);
            assert_repair_identical(
                &Image::from_raw(w, h, damaged),
                &format!("degenerate {w}x{h} {per_mille}‰"),
            );
        }
    }
    // Palette images: erased bytes between two agreeing neighbor pairs,
    // where the tie-break by surviving bits decides.
    for _ in 0..10 {
        let bytes: Vec<u8> = (0..24 * 24 * 3)
            .map(|_| [0u8, 0, 0x80, 0x0F, 0x55, 0xF0][rng.below(6) as usize])
            .collect();
        assert_repair_identical(&Image::from_raw(24, 24, bytes), "palette 24x24");
    }
    // Uniformly random bytes: every repair branch, including clipped bytes
    // whose neighbors disagree.
    for _ in 0..20 {
        let (w, h) = (1 + rng.below(40) as u32, 1 + rng.below(40) as u32);
        let bytes: Vec<u8> = (0..w * h * 3).map(|_| rng.next() as u8).collect();
        assert_repair_identical(&Image::from_raw(w, h, bytes), &format!("random {w}x{h}"));
    }
}

/// The view of `bytes` cut the way scrapes cut it: an arbitrary-length head,
/// then chunks of `unit` bytes (a power of two; 1 gives 1-byte segments).
fn segmented(bytes: &[u8], head: usize, unit: usize) -> ScrapeView<'_> {
    let (head, tail) = bytes.split_at(head.min(bytes.len()));
    let mut view = ScrapeView::with_unit(unit);
    view.set_head(head);
    for chunk in tail.chunks(unit) {
        view.push_chunk(chunk);
    }
    view
}

fn assert_same_match(got: Option<ModelMatch>, expected: Option<ModelMatch>, label: &str) {
    assert_eq!(got, expected, "{label}");
    let bits = |m: &Option<ModelMatch>| m.as_ref().and_then(|m| m.fuzzy_distance.map(f64::to_bits));
    assert_eq!(bits(&got), bits(&expected), "{label}: fuzzy_distance bits");
}

/// A scraped-heap-like buffer with decayed signature strings planted in
/// it, some straddling the given chunk grid.
fn planted_view_bytes(db: &SignatureDb, rng: &mut Rng, len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    // Background: zero pages, weight-like noise and stray text.
    let mut at = 0;
    while at < len {
        let run = (1 + rng.below(600) as usize).min(len - at);
        match rng.below(4) {
            0 | 1 => {}
            2 => bytes[at..at + run]
                .iter_mut()
                .for_each(|b| *b = rng.next() as u8),
            _ => bytes[at..at + run].iter_mut().for_each(|b| {
                *b = b"abcdefghijklmnopqrstuvwxyz_/0123456789"[rng.below(38) as usize]
            }),
        }
        at += run;
    }
    // Decayed copies of a few patterns, from one or several signatures.
    for _ in 0..1 + rng.below(6) {
        let sig = &db.signatures()[rng.below(db.signatures().len() as u64) as usize];
        let pattern = sig.patterns[rng.below(sig.patterns.len() as u64) as usize].as_bytes();
        if pattern.len() >= len {
            continue;
        }
        let start = rng.below((len - pattern.len()) as u64) as usize;
        let window = &mut bytes[start..start + pattern.len()];
        window.copy_from_slice(pattern);
        let kind = [Damage::Erased, Damage::Clipped, Damage::Mixed][rng.below(3) as usize];
        damage(window, kind, rng.below(700), rng);
    }
    bytes
}

#[test]
fn fuzzy_identify_matches_the_per_pattern_reference_on_planted_views() {
    let db = SignatureDb::standard();
    let mut rng = Rng(0xF022_1D00);
    for case in 0..60 {
        let len = 64 + rng.below(6000) as usize;
        let bytes = planted_view_bytes(&db, &mut rng, len);
        let expected = reference::fuzzy_identify_view(&ScrapeView::from_slice(&bytes), &db);
        assert_same_match(
            fuzzy_identify_view(&ScrapeView::from_slice(&bytes), &db),
            expected.clone(),
            &format!("case {case}, one segment"),
        );
        for unit in [1usize, 2, 16, 64, 1024, 4096] {
            let head = rng.below(len as u64 + 1) as usize;
            let view = segmented(&bytes, head, unit);
            assert_same_match(
                reference::fuzzy_identify_view(&view, &db),
                expected.clone(),
                &format!("case {case}, reference over unit {unit}"),
            );
            assert_same_match(
                fuzzy_identify_view(&view, &db),
                expected.clone(),
                &format!("case {case}, head {head}, unit {unit}"),
            );
        }
    }
}

#[test]
fn fuzzy_identify_matches_the_reference_on_patterns_straddling_seams() {
    let db = SignatureDb::standard();
    let mut rng = Rng(0x5EA_4500);
    for sig in db.signatures() {
        for pattern in &sig.patterns {
            let pattern = pattern.as_bytes();
            for unit in [1usize, 4, 8, 32] {
                // Start the pattern just before a seam so it crosses one or
                // several chunk boundaries.
                let start = 3 * unit - 1 - rng.below(unit as u64) as usize;
                let mut bytes = vec![0u8; start + pattern.len() + 2 * unit];
                bytes[start..start + pattern.len()].copy_from_slice(pattern);
                damage(
                    &mut bytes[start..start + pattern.len()],
                    Damage::Mixed,
                    250,
                    &mut rng,
                );
                let expected = reference::fuzzy_identify_view(&ScrapeView::from_slice(&bytes), &db);
                for head in [0, 1, unit / 2] {
                    assert_same_match(
                        fuzzy_identify_view(&segmented(&bytes, head, unit), &db),
                        expected.clone(),
                        &format!("{} unit {unit} head {head}", sig.model.name()),
                    );
                }
            }
        }
    }
}

#[test]
fn fuzzy_identify_matches_the_reference_on_zero_and_empty_views() {
    let db = SignatureDb::standard();
    for len in [0usize, 1, 3, 4, 40, 4096, 3 * 4096 + 17] {
        let zeros = vec![0u8; len];
        for unit in [1usize, 64, 4096] {
            let view = segmented(&zeros, len / 3, unit);
            assert_eq!(
                fuzzy_identify_view(&view, &db),
                None,
                "len {len} unit {unit}"
            );
            assert_eq!(reference::fuzzy_identify_view(&view, &db), None);
        }
    }
}

#[test]
fn fuzzy_scan_matches_the_reference_on_edge_patterns() {
    // Custom signature sets exercise what the standard one does not: empty
    // and all-zero patterns, patterns longer than a state word, duplicates
    // and patterns with zero bytes inside.
    let long: String = "vitis_ai_library/models/".repeat(4);
    let patterns: Vec<String> = vec![
        String::new(),
        "\0\0\0\0".to_string(),
        long.clone(),
        "resnet50_pt".to_string(),
        "resnet50_pt".to_string(),
        "ab\0cd\0ef".to_string(),
        "abcd".to_string(),
        "x".to_string(),
    ];
    let db = SignatureDb::from_signatures(vec![
        ModelSignature {
            model: ModelKind::Resnet50Pt,
            patterns: patterns[..4].to_vec(),
        },
        ModelSignature {
            model: ModelKind::Vgg16,
            patterns: patterns[4..].to_vec(),
        },
        ModelSignature {
            model: ModelKind::SqueezeNet,
            patterns: Vec::new(),
        },
    ]);
    let mut rng = Rng(0xED6E);
    for case in 0..40 {
        let mut bytes = vec![0u8; 200 + rng.below(400) as usize];
        for pattern in patterns.iter().filter(|p| !p.is_empty()) {
            if rng.chance(600) && pattern.len() < bytes.len() {
                let start = rng.below((bytes.len() - pattern.len()) as u64) as usize;
                bytes[start..start + pattern.len()].copy_from_slice(pattern.as_bytes());
                damage(
                    &mut bytes[start..start + pattern.len()],
                    Damage::Mixed,
                    rng.below(500),
                    &mut rng,
                );
            }
        }
        for pattern in &patterns {
            let (got, expected) = (
                fuzzy_scan(&bytes, pattern.as_bytes()),
                reference::fuzzy_scan(&bytes, pattern.as_bytes()),
            );
            assert_eq!(
                got.map(f64::to_bits),
                expected.map(f64::to_bits),
                "case {case}, pattern {pattern:?}"
            );
        }
        let expected = reference::fuzzy_identify_view(&ScrapeView::from_slice(&bytes), &db);
        for unit in [1usize, 8, 4096] {
            assert_same_match(
                fuzzy_identify_view(&segmented(&bytes, 5, unit), &db),
                expected.clone(),
                &format!("custom db case {case} unit {unit}"),
            );
        }
    }
}

/// A heap-like buffer for the marker scan: noise, decayed corrupted and
/// sentinel images, and marker runs of one byte and of 255, 256 and 257
/// bytes (around the attack's 256-byte threshold), each starting just
/// before a seam of the `unit`-byte grid so that it straddles one or more.
fn marker_view_bytes(rng: &mut Rng, unit: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    for _ in 0..1 + rng.below(4) {
        for _ in 0..rng.below(700) {
            let byte = match rng.below(4) {
                0 => 0xFF,
                1 => 0x55,
                2 => 0,
                _ => rng.next() as u8,
            };
            bytes.push(byte);
        }
        let (w, h) = (1 + rng.below(24) as u32, 1 + rng.below(12) as u32);
        let mut image = if rng.chance(500) {
            Image::corrupted(w, h)
        } else {
            Image::profiling_sentinel(w, h)
        }
        .into_bytes();
        let kind = [Damage::Erased, Damage::Clipped, Damage::Mixed][rng.below(3) as usize];
        damage(&mut image, kind, rng.below(80), rng);
        bytes.extend_from_slice(&image);
    }
    for len in [255usize, 256, 257, 1] {
        let value = if rng.chance(500) { 0xFF } else { 0x55 };
        let to_seam = (unit - bytes.len() % unit) % unit;
        let before_next = unit - 1 - rng.below(unit as u64) as usize;
        bytes.resize(bytes.len() + to_seam + before_next, 0);
        bytes.resize(bytes.len() + len, value);
        bytes.push(0);
    }
    bytes
}

#[test]
fn marker_runs_match_the_byte_wise_reference_on_decayed_views() {
    let mut rng = Rng(0x3A2C_E200);
    for case in 0..10 {
        for unit in [1usize, 8, 64, 4096] {
            let bytes = marker_view_bytes(&mut rng, unit);
            for head in [0, unit, rng.below(bytes.len() as u64 + 1) as usize] {
                let view = segmented(&bytes, head, unit);
                for min_len in [0, 1, 4, 255, 256, 257, u64::MAX] {
                    for (marker, value) in [(CORRUPTED_MARKER, 0xFF), (SENTINEL_MARKER, 0x55)] {
                        assert_eq!(
                            marker_runs_view(&view, marker, min_len),
                            reference::marker_runs(&view, value, min_len),
                            "case {case} unit {unit} head {head} min_len {min_len} \
                             marker {marker:08x}"
                        );
                    }
                }
            }
        }
    }
}

/// Bytes of noise, zeros and text with decayed copies of `patterns` planted
/// in them.
fn planted_pattern_bytes(patterns: &[&[u8]], rng: &mut Rng) -> Vec<u8> {
    let mut bytes: Vec<u8> = (0..300 + rng.below(1500))
        .map(|_| match rng.below(3) {
            0 => 0,
            1 => rng.next() as u8,
            _ => b"abcdefghij_/0123"[rng.below(16) as usize],
        })
        .collect();
    for pattern in patterns {
        if pattern.is_empty() || !rng.chance(700) {
            continue;
        }
        let start = rng.below((bytes.len() - pattern.len()) as u64) as usize;
        let window = &mut bytes[start..start + pattern.len()];
        window.copy_from_slice(pattern);
        damage(window, Damage::Mixed, rng.below(400), rng);
    }
    bytes
}

#[test]
fn fuzzy_identify_matches_the_reference_when_patterns_shrink_the_kill_set() {
    // Bytes >= 0x80 in the patterns leave fewer bytes that are a bit subset
    // of no pattern byte, so fewer bytes clear the automaton outright.
    let patterns = [
        "vitis_ai/modèles/résnet50",
        "ÿþý_poids_über",
        "\u{10FFFF}\u{7FF}\u{FFFF}_dpu",
        "plain_ascii_tail",
    ];
    let db = SignatureDb::from_signatures(vec![
        ModelSignature {
            model: ModelKind::Resnet50Pt,
            patterns: patterns[..2].iter().map(|p| p.to_string()).collect(),
        },
        ModelSignature {
            model: ModelKind::Vgg16,
            patterns: patterns[2..].iter().map(|p| p.to_string()).collect(),
        },
    ]);
    let as_bytes: Vec<&[u8]> = patterns.iter().map(|p| p.as_bytes()).collect();
    let mut rng = Rng(0x4B11_0080);
    for case in 0..40 {
        let bytes = planted_pattern_bytes(&as_bytes, &mut rng);
        let expected = reference::fuzzy_identify_view(&ScrapeView::from_slice(&bytes), &db);
        for unit in [1usize, 16, 4096] {
            assert_same_match(
                fuzzy_identify_view(&segmented(&bytes, 3, unit), &db),
                expected.clone(),
                &format!("non-ASCII db case {case} unit {unit}"),
            );
        }
    }
    // Raw byte patterns can hold 0xFF, of which every byte is a bit subset:
    // no byte kills the state.
    let raw: [&[u8]; 4] = [
        &[0xFF; 6],
        &[0xFF, 0x80, 0x7F, 0x01, 0xFE, 0xC3, 0xA9],
        &[0x80, 0x90, 0xA0, 0xB0, 0xC0],
        b"ascii\xFFbyte",
    ];
    for case in 0..40 {
        let bytes = planted_pattern_bytes(&raw, &mut rng);
        for pattern in raw {
            assert_eq!(
                fuzzy_scan(&bytes, pattern).map(f64::to_bits),
                reference::fuzzy_scan(&bytes, pattern).map(f64::to_bits),
                "raw case {case}, pattern {pattern:02x?}"
            );
        }
    }
}

#[test]
fn fuzzy_identify_on_an_empty_database_matches_nothing() {
    let empty = SignatureDb::from_signatures(Vec::new());
    let hollow = SignatureDb::from_signatures(vec![ModelSignature {
        model: ModelKind::SqueezeNet,
        patterns: vec![String::new(), "\0\0\0\0".to_string()],
    }]);
    let mut rng = Rng(0xE3B7);
    let standard = planted_view_bytes(&SignatureDb::standard(), &mut rng, 4096);
    let noise: Vec<u8> = (0..4096).map(|_| rng.next() as u8).collect();
    for bytes in [Vec::new(), vec![0u8; 100], noise, standard] {
        for db in [&empty, &hollow] {
            for unit in [1usize, 4096] {
                let view = segmented(&bytes, 1, unit);
                assert_eq!(fuzzy_identify_view(&view, db), None);
                assert_eq!(reference::fuzzy_identify_view(&view, db), None);
            }
        }
    }
}

#[test]
fn repair_matches_the_reference_on_an_adversarial_alphabet() {
    // Zero, all ones, single bits, and pairs that tie on set bits (0x0F and
    // 0xF0, 0x7F and 0xFE), drawn from a few values at a time so that
    // equal neighbors, two agreeing pairs and three-of-four bit majorities
    // are common.
    const ALPHABET: [u8; 14] = [
        0, 0xFF, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x0F, 0xF0, 0x7F, 0xFE,
    ];
    let mut rng = Rng(0xA1FA_BE70);
    for case in 0..200 {
        let values: Vec<u8> = (0..2 + rng.below(4))
            .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
            .collect();
        let (w, h) = (1 + rng.below(20) as u32, 1 + rng.below(20) as u32);
        let bytes: Vec<u8> = (0..w * h * 3)
            .map(|_| values[rng.below(values.len() as u64) as usize])
            .collect();
        assert_repair_identical(
            &Image::from_raw(w, h, bytes),
            &format!("alphabet case {case} {w}x{h} {values:02x?}"),
        );
    }
}

proptest! {
    /// Fuzzy identification never panics on arbitrary bytes, segmentations
    /// and pattern bytes, and matches the per-pattern reference.
    #[test]
    fn prop_fuzzy_identify_is_panic_free_and_matches_the_reference(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
        pattern_bytes in proptest::collection::vec(any::<u8>(), 0..40),
        head in any::<usize>(),
        unit_shift in 0u32..13,
    ) {
        let view = segmented(&bytes, head % (bytes.len() + 1), 1 << unit_shift);
        let (left, right) = pattern_bytes.split_at(pattern_bytes.len() / 2);
        let custom = SignatureDb::from_signatures(vec![ModelSignature {
            model: ModelKind::YoloV3,
            patterns: vec![
                String::from_utf8_lossy(left).into_owned(),
                String::from_utf8_lossy(right).into_owned(),
            ],
        }]);
        for db in [&SignatureDb::standard(), &custom] {
            assert_same_match(
                fuzzy_identify_view(&view, db),
                reference::fuzzy_identify_view(&view, db),
                "arbitrary view",
            );
        }
    }

    /// Repair never panics on arbitrary pixels and dimensions (empty, one
    /// row or column, rows that end mid-word) and matches the reference.
    #[test]
    fn prop_repair_is_panic_free_and_matches_the_reference(
        seed in proptest::collection::vec(any::<u8>(), 1..64),
        width in 0u32..30,
        height in 0u32..30,
    ) {
        let bytes: Vec<u8> = seed.iter().copied().cycle().take((width * height * 3) as usize).collect();
        assert_repair_identical(&Image::from_raw(width, height, bytes), "arbitrary image");
    }
}
