//! Step 3: extract data from physical addresses after victim termination.

// Lint audit: address arithmetic here is bounds-checked against the
// DRAM window before any narrowing cast or direct index; offsets are
// derived from validated window-relative coordinates.
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use petalinux_sim::Kernel;
use xsdb::DebugSession;
use zynq_dram::{ScrapeView, PAGE_SIZE};

use crate::attack::ScrapeMode;
use crate::dump::{HeapView, MemoryDump};
use crate::error::AttackError;
use crate::translate::HeapTranslation;

/// Scrapes the victim's heap from physical memory using a previously captured
/// translation.
///
/// The paper performs this step only after the victim's pid has disappeared
/// from the process list; callers that want the same discipline should check
/// [`DebugSession::is_running`] first (the [`crate::attack::AttackPipeline`]
/// does, and returns [`AttackError::VictimStillRunning`] otherwise).
///
/// Three read strategies are supported:
///
/// - [`ScrapeMode::ContiguousRange`] — the paper's method: translate only the
///   heap's endpoints and read the physical range between them in one sweep.
///   Correct whenever the kernel hands out physically contiguous frames for a
///   contiguous heap (the PetaLinux default), cheap, but defeated by
///   physical-layout randomization.
/// - [`ScrapeMode::PerPage`] — translate and read every page individually; a
///   stronger attacker that tolerates scattered physical layouts.
/// - [`ScrapeMode::MultiSnapshot`] — the contiguous read repeated across
///   revival windows and OR-fused; on this immutable entry point it
///   degenerates to the single contiguous sweep (see
///   [`scrape_heap_snapshots`] for the real N-pass read).
///
/// # Errors
///
/// Returns [`AttackError::TranslationEmpty`] if the translation has no usable
/// physical addresses, and [`AttackError::Channel`] if a physical read is
/// denied or out of range.
pub fn scrape_heap(
    debugger: &mut DebugSession,
    kernel: &Kernel,
    translation: &HeapTranslation,
    mode: ScrapeMode,
) -> Result<MemoryDump, AttackError> {
    mode.validate()?;
    match mode {
        // Without a mutable kernel the decay clock cannot advance between
        // snapshots, and OR-fusing N identical-tick reads of a monotone decay
        // view equals the earliest read — so the single contiguous sweep is
        // byte-identical to the fused result.  The real N-pass read lives in
        // `scrape_heap_snapshots`.
        ScrapeMode::ContiguousRange | ScrapeMode::MultiSnapshot { .. } => {
            scrape_contiguous(debugger, kernel, translation)
        }
        ScrapeMode::PerPage => scrape_per_page(debugger, kernel, translation),
    }
}

/// The zero-copy form of [`scrape_heap`]: borrows the victim's heap as a
/// [`HeapView`] over the DRAM arena instead of copying it out.
///
/// Returns `Ok(None)` when the board's remanence model forces an owned decay
/// transform — callers then fall back to [`scrape_heap`].  When a view is
/// returned, its bytes and coverage are identical to the owned dump the same
/// mode would produce, and the debugger audit trail records the same
/// `ReadPhys` operations.
///
/// # Errors
///
/// Same conditions as [`scrape_heap`].
pub fn scrape_heap_view<'k>(
    debugger: &mut DebugSession,
    kernel: &'k Kernel,
    translation: &HeapTranslation,
    mode: ScrapeMode,
) -> Result<Option<HeapView<'k>>, AttackError> {
    mode.validate()?;
    if !kernel.zero_copy_reads_available() {
        return Ok(None);
    }
    match mode {
        // MultiSnapshot joins the contiguous modes here for the same reason
        // it does in `scrape_heap`: with an immutable kernel every snapshot
        // reads the same tick, and the OR-fusion of identical reads is that
        // read.
        ScrapeMode::ContiguousRange | ScrapeMode::MultiSnapshot { .. } => {
            scrape_contiguous_view(debugger, kernel, translation)
        }
        ScrapeMode::PerPage => scrape_per_page_view(debugger, kernel, translation),
    }
}

/// A multi-snapshot scrape: the fused dump the analysis consumes plus the
/// raw per-snapshot reads (each taken one decay tick after the previous;
/// the kernel evaluates the decay view at several ticks per sweep).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotScrape {
    /// The OR-fused dump ([`crate::analysis::reconstruct::fuse_snapshots`]).
    pub dump: MemoryDump,
    /// The individual snapshots, earliest first.
    pub snapshots: Vec<Vec<u8>>,
}

/// The mutable-kernel form of [`scrape_heap`] for
/// [`ScrapeMode::MultiSnapshot`]: reads the victim's contiguous physical
/// range `snapshots` times across successive decay ticks and OR-fuses the
/// reads into one dump.  The reads are
/// [`DebugSession::read_phys_snapshots`]: one audit entry per snapshot, and
/// one decay sweep for all the snapshots between two background-scrub
/// deadlines, drawing each residue cell once.
///
/// Because decay only ever clears bits, the fused dump is a bitwise superset
/// of every individual snapshot and a subset of the raw residue; with the
/// default perfect remanence every snapshot is identical and the fused dump
/// equals the single-read scrape.  Edge semantics (empty translation,
/// zero-length heap, window-end clamping) mirror the contiguous scrape.
///
/// # Errors
///
/// Same conditions as [`scrape_heap`], plus a rejection of zero snapshot
/// counts.
pub fn scrape_heap_snapshots(
    debugger: &mut DebugSession,
    kernel: &mut Kernel,
    translation: &HeapTranslation,
    snapshots: usize,
) -> Result<SnapshotScrape, AttackError> {
    ScrapeMode::MultiSnapshot { snapshots }.validate()?;
    // A zero-length window is a typed empty scrape, not a translation error:
    // it is checked before `phys_start()` so a degenerate translation with no
    // pages at all still dumps empty instead of erroring.
    let len = translation.heap_len() as usize;
    if len == 0 {
        return Ok(SnapshotScrape {
            dump: MemoryDump::empty(translation.heap_start()),
            snapshots: vec![Vec::new(); snapshots],
        });
    }
    let start = translation
        .phys_start()
        .ok_or(AttackError::TranslationEmpty {
            pid: translation.pid(),
        })?;
    let window_end = kernel.config().dram().end();
    let available = window_end.offset_from(start).min(len as u64) as usize;
    let reads = debugger.read_phys_snapshots(kernel, start, available, snapshots)?;
    let mut fused = crate::analysis::reconstruct::fuse_snapshots(&reads);
    fused.resize(len, 0);
    Ok(SnapshotScrape {
        dump: MemoryDump::from_contiguous(translation.heap_start(), start, fused),
        snapshots: reads,
    })
}

fn scrape_contiguous_view<'k>(
    debugger: &mut DebugSession,
    kernel: &'k Kernel,
    translation: &HeapTranslation,
) -> Result<Option<HeapView<'k>>, AttackError> {
    // Zero-length window first, as in the owned path: a typed empty view,
    // even when the translation carries no physical pages.
    let len = translation.heap_len() as usize;
    if len == 0 {
        return Ok(Some(HeapView::empty(translation.heap_start())));
    }
    let start = translation
        .phys_start()
        .ok_or(AttackError::TranslationEmpty {
            pid: translation.pid(),
        })?;
    // Same window-end clamp as the owned read; the unreadable tail is
    // zero-padded with shared zero chunks.  The padding starts on a view-unit
    // boundary: window end and heap start are page-aligned, and the unit
    // divides the page size.
    let window_end = kernel.config().dram().end();
    let available = window_end.offset_from(start).min(len as u64);
    let Some(mut view) = debugger.read_phys_view(kernel, start, available)? else {
        return Ok(None);
    };
    view.push_zeros(len - available as usize);
    // The owned contiguous dump records every page as captured (including a
    // zero-padded tail); mirror that so coverage agrees.
    let pages = len.div_ceil(PAGE_SIZE as usize);
    Ok(Some(HeapView::new(
        translation.heap_start(),
        view,
        pages,
        pages,
    )))
}

fn scrape_per_page_view<'k>(
    debugger: &mut DebugSession,
    kernel: &'k Kernel,
    translation: &HeapTranslation,
) -> Result<Option<HeapView<'k>>, AttackError> {
    if translation.heap_len() == 0 {
        return Ok(Some(HeapView::empty(translation.heap_start())));
    }
    if translation.present_pages() == 0 {
        return Err(AttackError::TranslationEmpty {
            pid: translation.pid(),
        });
    }
    // The view unit comes from the first captured page (it is a board
    // constant), so gap pages ahead of it are buffered as a count and
    // prepended once the unit is known.
    let mut view: Option<ScrapeView<'k>> = None;
    let mut leading_gaps = 0usize;
    let mut captured = 0usize;
    for page in translation.pages() {
        match page {
            Some(pa) => {
                let Some(page_view) = debugger.read_phys_view(kernel, *pa, PAGE_SIZE)? else {
                    return Ok(None);
                };
                captured += 1;
                let stitched = view.get_or_insert_with(|| ScrapeView::with_unit(page_view.unit()));
                if leading_gaps > 0 {
                    stitched.push_zeros(leading_gaps * PAGE_SIZE as usize);
                    leading_gaps = 0;
                }
                stitched.append(page_view);
            }
            None => match view.as_mut() {
                Some(stitched) => stitched.push_zeros(PAGE_SIZE as usize),
                None => leading_gaps += 1,
            },
        }
    }
    let view = view.expect("present_pages() > 0 guarantees at least one captured page");
    Ok(Some(HeapView::new(
        translation.heap_start(),
        view,
        captured,
        translation.pages().len(),
    )))
}

fn scrape_contiguous(
    debugger: &mut DebugSession,
    kernel: &Kernel,
    translation: &HeapTranslation,
) -> Result<MemoryDump, AttackError> {
    // A zero-length window is a typed empty dump, not a translation error,
    // so it is checked before `phys_start()`: a degenerate translation with
    // no pages at all must not be promoted to `TranslationEmpty`.
    let len = translation.heap_len() as usize;
    if len == 0 {
        return Ok(MemoryDump::empty(translation.heap_start()));
    }
    let start = translation
        .phys_start()
        .ok_or(AttackError::TranslationEmpty {
            pid: translation.pid(),
        })?;
    // Reading beyond the DRAM window (possible when randomized layouts put the
    // first heap page near the top of memory) is clamped rather than failed:
    // the real attack's devmem loop would simply get errors for those words.
    let window_end = kernel.config().dram().end();
    let available = window_end.offset_from(start).min(len as u64) as usize;
    let mut padded = debugger.read_phys_range(kernel, start, available)?;
    padded.resize(len, 0);
    Ok(MemoryDump::from_contiguous(
        translation.heap_start(),
        start,
        padded,
    ))
}

fn scrape_per_page(
    debugger: &mut DebugSession,
    kernel: &Kernel,
    translation: &HeapTranslation,
) -> Result<MemoryDump, AttackError> {
    if translation.heap_len() == 0 {
        return Ok(MemoryDump::empty(translation.heap_start()));
    }
    if translation.present_pages() == 0 {
        return Err(AttackError::TranslationEmpty {
            pid: translation.pid(),
        });
    }
    let mut pages = Vec::with_capacity(translation.pages().len());
    for page in translation.pages() {
        match page {
            Some(pa) => {
                let bytes = debugger.read_phys_range(kernel, *pa, PAGE_SIZE as usize)?;
                pages.push(Some((*pa, bytes)));
            }
            None => pages.push(None),
        }
    }
    Ok(MemoryDump::from_pages(translation.heap_start(), pages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use petalinux_sim::{BoardConfig, Pid, UserId};
    use vitis_ai_sim::{DpuRunner, Image, ModelKind};
    use zynq_mmu::VirtAddr;

    use crate::translate::capture_heap_translation;

    fn attacked_board() -> (Kernel, vitis_ai_sim::CompletedRun, HeapTranslation) {
        let mut kernel = Kernel::boot(BoardConfig::tiny_for_tests());
        let launched = DpuRunner::new(ModelKind::SqueezeNet)
            .with_input(Image::corrupted(224, 224))
            .launch(&mut kernel, UserId::new(0))
            .unwrap();
        let mut dbg = DebugSession::connect(UserId::new(1));
        let translation = capture_heap_translation(&mut dbg, &kernel, launched.pid()).unwrap();
        let run = launched.terminate(&mut kernel).unwrap();
        (kernel, run, translation)
    }

    #[test]
    fn both_modes_recover_identical_data_under_default_layout() {
        let (kernel, run, translation) = attacked_board();
        let mut dbg = DebugSession::connect(UserId::new(1));

        let contiguous =
            scrape_heap(&mut dbg, &kernel, &translation, ScrapeMode::ContiguousRange).unwrap();
        let per_page = scrape_heap(&mut dbg, &kernel, &translation, ScrapeMode::PerPage).unwrap();

        assert_eq!(contiguous.len() as u64, run.layout().heap_len);
        assert_eq!(contiguous.as_bytes(), per_page.as_bytes());
        assert_eq!(per_page.coverage(), 1.0);

        // The scraped dump contains the model string and the corrupted-image
        // marker, i.e. the victim's residue.
        let hex = contiguous.to_hexdump();
        assert!(!hex.grep("squeezenet").is_empty());
        let marker_offset = hex.find(&[0xFF; 16]).unwrap() as u64;
        assert_eq!(marker_offset, run.layout().image_offset);
    }

    #[test]
    fn zero_snapshot_mode_is_rejected_up_front() {
        // `snapshots` is a public field, so an invalid mode can reach the
        // immutable scrape without passing any builder assert; every path
        // refuses it with the same channel error (before touching memory —
        // even an empty heap must not make the invalid mode silently
        // succeed).
        let (kernel, _run, translation) = attacked_board();
        let mut dbg = DebugSession::connect(UserId::new(1));
        let err = scrape_heap(
            &mut dbg,
            &kernel,
            &translation,
            ScrapeMode::MultiSnapshot { snapshots: 0 },
        )
        .unwrap_err();
        assert!(matches!(err, AttackError::Channel(_)), "{err}");
        assert!(err.to_string().contains("zero snapshots"));
    }

    #[test]
    fn zero_copy_view_is_byte_identical_to_the_owned_dump_in_every_mode() {
        let (kernel, _run, translation) = attacked_board();
        let mut dbg = DebugSession::connect(UserId::new(1));
        for mode in [ScrapeMode::ContiguousRange, ScrapeMode::PerPage] {
            let dump = scrape_heap(&mut dbg, &kernel, &translation, mode).unwrap();
            let heap = scrape_heap_view(&mut dbg, &kernel, &translation, mode)
                .unwrap()
                .expect("perfect remanence permits borrowed reads");
            assert_eq!(heap.len(), dump.len(), "{mode}");
            assert_eq!(heap.to_bytes(), dump.as_bytes(), "{mode}");
            assert_eq!(heap.coverage(), dump.coverage(), "{mode}");
            assert_eq!(heap.heap_start(), dump.heap_start(), "{mode}");
            assert_eq!(heap.captured_pages(), dump.captured_pages(), "{mode}");
            assert_eq!(heap.missing_pages(), dump.missing_pages(), "{mode}");
        }
    }

    #[test]
    fn view_scrape_stitches_gap_pages_and_clamps_like_the_owned_path() {
        let (kernel, _run, translation) = attacked_board();
        let mut dbg = DebugSession::connect(UserId::new(1));

        // Leading and interior gaps: pages 0 and 2 dropped.
        let mut pages = translation.pages().to_vec();
        pages[0] = None;
        pages[2] = None;
        let partial = HeapTranslation::from_parts(
            translation.pid(),
            translation.heap_start(),
            translation.heap_end(),
            pages,
        );
        let dump = scrape_heap(&mut dbg, &kernel, &partial, ScrapeMode::PerPage).unwrap();
        let heap = scrape_heap_view(&mut dbg, &kernel, &partial, ScrapeMode::PerPage)
            .unwrap()
            .unwrap();
        assert_eq!(heap.to_bytes(), dump.as_bytes());
        assert_eq!(heap.missing_pages(), 2);
        assert_eq!(heap.coverage(), dump.coverage());

        // Window-end clamp: the unreadable tail reads as zero padding.
        let near_end = kernel.config().dram().end() - PAGE_SIZE;
        let clamped = HeapTranslation::from_parts(
            Pid::new(77),
            VirtAddr::new(0x1000),
            VirtAddr::new(0x1000 + 4 * PAGE_SIZE),
            vec![Some(near_end), None, None, None],
        );
        let dump = scrape_heap(&mut dbg, &kernel, &clamped, ScrapeMode::ContiguousRange).unwrap();
        let heap = scrape_heap_view(&mut dbg, &kernel, &clamped, ScrapeMode::ContiguousRange)
            .unwrap()
            .unwrap();
        assert_eq!(heap.len() as u64, 4 * PAGE_SIZE);
        assert_eq!(heap.to_bytes(), dump.as_bytes());

        // Zero-length heap mirrors the owned empty dump.
        let empty = HeapTranslation::from_parts(
            Pid::new(77),
            VirtAddr::new(0x1000),
            VirtAddr::new(0x1000),
            vec![Some(kernel.config().dram().base())],
        );
        let heap = scrape_heap_view(&mut dbg, &kernel, &empty, ScrapeMode::ContiguousRange)
            .unwrap()
            .unwrap();
        assert!(heap.is_empty());
        assert_eq!(heap.coverage(), 0.0);
    }

    #[test]
    fn view_scrape_declines_under_decaying_remanence() {
        use zynq_dram::RemanenceModel;
        let board = BoardConfig::tiny_for_tests().with_remanence(RemanenceModel::Exponential {
            half_life_ticks: 1000,
        });
        let mut kernel = Kernel::boot(board);
        let launched = DpuRunner::new(ModelKind::SqueezeNet)
            .with_input(Image::corrupted(224, 224))
            .launch(&mut kernel, UserId::new(0))
            .unwrap();
        let mut dbg = DebugSession::connect(UserId::new(1));
        let translation = capture_heap_translation(&mut dbg, &kernel, launched.pid()).unwrap();
        launched.terminate(&mut kernel).unwrap();
        for mode in [ScrapeMode::ContiguousRange, ScrapeMode::PerPage] {
            assert!(scrape_heap_view(&mut dbg, &kernel, &translation, mode)
                .unwrap()
                .is_none());
        }
        // The invalid mode is still rejected ahead of the remanence gate.
        let err = scrape_heap_view(
            &mut dbg,
            &kernel,
            &translation,
            ScrapeMode::MultiSnapshot { snapshots: 0 },
        )
        .unwrap_err();
        assert!(err.to_string().contains("zero snapshots"));
    }

    #[test]
    fn multi_snapshot_mode_degenerates_to_contiguous_on_immutable_paths() {
        let (kernel, _run, translation) = attacked_board();
        let mut dbg = DebugSession::connect(UserId::new(1));
        let contiguous =
            scrape_heap(&mut dbg, &kernel, &translation, ScrapeMode::ContiguousRange).unwrap();
        let multi = scrape_heap(
            &mut dbg,
            &kernel,
            &translation,
            ScrapeMode::MultiSnapshot { snapshots: 3 },
        )
        .unwrap();
        assert_eq!(contiguous.as_bytes(), multi.as_bytes());
        let heap = scrape_heap_view(
            &mut dbg,
            &kernel,
            &translation,
            ScrapeMode::MultiSnapshot { snapshots: 3 },
        )
        .unwrap()
        .expect("perfect remanence permits borrowed reads");
        assert_eq!(heap.to_bytes(), contiguous.as_bytes());
    }

    #[test]
    fn snapshot_scrape_fuses_decaying_reads_soundly() {
        use zynq_dram::RemanenceModel;
        let board = BoardConfig::tiny_for_tests()
            .with_remanence(RemanenceModel::Exponential { half_life_ticks: 4 });
        let mut kernel = Kernel::boot(board);
        kernel.set_remanence_seed(99);
        let launched = DpuRunner::new(ModelKind::SqueezeNet)
            .with_input(Image::corrupted(224, 224))
            .launch(&mut kernel, UserId::new(0))
            .unwrap();
        let mut dbg = DebugSession::connect(UserId::new(1));
        let translation = capture_heap_translation(&mut dbg, &kernel, launched.pid()).unwrap();
        launched.terminate(&mut kernel).unwrap();

        let scrape = scrape_heap_snapshots(&mut dbg, &mut kernel, &translation, 3).unwrap();
        assert_eq!(scrape.snapshots.len(), 3);
        let fused = scrape.dump.as_bytes();
        for (i, snapshot) in scrape.snapshots.iter().enumerate() {
            for (f, s) in fused.iter().zip(snapshot) {
                assert_eq!(s & !f, 0, "snapshot {i} bit missing from fusion");
            }
        }
        // Under monotone decay the fusion equals the earliest snapshot
        // (padded to heap length).
        let mut earliest = scrape.snapshots[0].clone();
        earliest.resize(fused.len(), 0);
        assert_eq!(fused, &earliest[..]);
        // Later snapshots genuinely lose bytes at this half-life.
        let survivors = |bytes: &[u8]| bytes.iter().filter(|&&b| b != 0).count();
        assert!(survivors(&scrape.snapshots[2]) < survivors(&scrape.snapshots[0]));
    }

    #[test]
    fn snapshot_scrape_rejects_zero_and_mirrors_edge_semantics() {
        let (kernel, _run, translation) = attacked_board();
        let mut kernel = kernel;
        let mut dbg = DebugSession::connect(UserId::new(1));
        let err = scrape_heap_snapshots(&mut dbg, &mut kernel, &translation, 0).unwrap_err();
        assert!(matches!(err, AttackError::Channel(_)), "{err}");
        assert!(err.to_string().contains("zero snapshots"));

        // Empty translation and zero-length heap behave like the contiguous
        // scrape.
        let empty = HeapTranslation::from_parts(
            translation.pid(),
            translation.heap_start(),
            translation.heap_end(),
            vec![None; translation.pages().len()],
        );
        assert!(matches!(
            scrape_heap_snapshots(&mut dbg, &mut kernel, &empty, 2),
            Err(AttackError::TranslationEmpty { .. })
        ));
        let zero_len = HeapTranslation::from_parts(
            Pid::new(77),
            VirtAddr::new(0x1000),
            VirtAddr::new(0x1000),
            vec![Some(kernel.config().dram().base())],
        );
        let scrape = scrape_heap_snapshots(&mut dbg, &mut kernel, &zero_len, 2).unwrap();
        assert!(scrape.dump.is_empty());
        assert_eq!(scrape.snapshots, vec![Vec::new(); 2]);

        // Under perfect remanence every snapshot is identical and the fused
        // dump equals the single-read scrape.
        let single =
            scrape_heap(&mut dbg, &kernel, &translation, ScrapeMode::ContiguousRange).unwrap();
        let multi = scrape_heap_snapshots(&mut dbg, &mut kernel, &translation, 3).unwrap();
        assert_eq!(multi.dump.as_bytes(), single.as_bytes());
        assert!(multi.snapshots.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn per_page_mode_fills_missing_pages_with_zeros() {
        let (kernel, _run, translation) = attacked_board();
        // Drop one page from the translation to simulate a swapped-out page.
        let mut pages = translation.pages().to_vec();
        pages[1] = None;
        let partial = HeapTranslation::from_parts(
            translation.pid(),
            translation.heap_start(),
            translation.heap_end(),
            pages,
        );
        let mut dbg = DebugSession::connect(UserId::new(1));
        let dump = scrape_heap(&mut dbg, &kernel, &partial, ScrapeMode::PerPage).unwrap();
        assert_eq!(dump.missing_pages(), 1);
        assert!(dump.coverage() < 1.0);
        assert!(dump.as_bytes()[PAGE_SIZE as usize..2 * PAGE_SIZE as usize]
            .iter()
            .all(|&b| b == 0));
    }

    #[test]
    fn empty_translation_is_rejected() {
        let (kernel, _, translation) = attacked_board();
        let empty = HeapTranslation::from_parts(
            translation.pid(),
            translation.heap_start(),
            translation.heap_end(),
            vec![None; translation.pages().len()],
        );
        let mut dbg = DebugSession::connect(UserId::new(1));
        assert!(matches!(
            scrape_heap(&mut dbg, &kernel, &empty, ScrapeMode::PerPage),
            Err(AttackError::TranslationEmpty { .. })
        ));
        assert!(matches!(
            scrape_heap(&mut dbg, &kernel, &empty, ScrapeMode::ContiguousRange),
            Err(AttackError::TranslationEmpty { .. })
        ));
    }

    #[test]
    fn zero_length_heap_yields_empty_dump() {
        let (kernel, _, _) = attacked_board();
        let translation = HeapTranslation::from_parts(
            Pid::new(77),
            VirtAddr::new(0x1000),
            VirtAddr::new(0x1000),
            vec![Some(kernel.config().dram().base())],
        );
        let mut dbg = DebugSession::connect(UserId::new(1));
        let dump =
            scrape_heap(&mut dbg, &kernel, &translation, ScrapeMode::ContiguousRange).unwrap();
        assert!(dump.is_empty());
    }

    #[test]
    fn contiguous_read_near_window_end_is_clamped() {
        let (kernel, _, _) = attacked_board();
        let near_end = kernel.config().dram().end() - PAGE_SIZE;
        let translation = HeapTranslation::from_parts(
            Pid::new(77),
            VirtAddr::new(0x1000),
            VirtAddr::new(0x1000 + 4 * PAGE_SIZE),
            vec![Some(near_end), None, None, None],
        );
        let mut dbg = DebugSession::connect(UserId::new(1));
        let dump =
            scrape_heap(&mut dbg, &kernel, &translation, ScrapeMode::ContiguousRange).unwrap();
        // Full requested length, with the unreadable tail zero-padded.
        assert_eq!(dump.len() as u64, 4 * PAGE_SIZE);
    }
}
