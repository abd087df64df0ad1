//! Step 2: fetch virtual addresses and convert them to physical addresses.
//!
//! This is the attacker-side analogue of the paper's `virtual_to_physical.c`
//! helper: it works exclusively with data visible through the debugger channel
//! (`/proc/<pid>/maps` text and `/proc/<pid>/pagemap` entries), never with
//! kernel internals.

// Lint audit: narrowing casts here operate on values already clamped
// to their target range by the surrounding arithmetic.
#![allow(clippy::cast_possible_truncation)]

use petalinux_sim::procfs::parse_heap_range;
use petalinux_sim::{Kernel, Pid};
use xsdb::DebugSession;
use zynq_dram::{PhysAddr, PAGE_SIZE};
use zynq_mmu::VirtAddr;

use crate::error::AttackError;

/// The captured translation of a victim's heap: its virtual range and, for
/// every page, the physical address it was resident at while the victim was
/// running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapTranslation {
    pid: Pid,
    heap_start: VirtAddr,
    heap_end: VirtAddr,
    pages: Vec<Option<PhysAddr>>,
}

impl HeapTranslation {
    /// Builds a translation directly from its parts (used by tests and by
    /// synthetic experiments).
    pub fn from_parts(
        pid: Pid,
        heap_start: VirtAddr,
        heap_end: VirtAddr,
        pages: Vec<Option<PhysAddr>>,
    ) -> Self {
        HeapTranslation {
            pid,
            heap_start,
            heap_end,
            pages,
        }
    }

    /// The victim pid this translation belongs to.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// First virtual address of the heap.
    pub fn heap_start(&self) -> VirtAddr {
        self.heap_start
    }

    /// One past the last virtual address of the heap.
    pub fn heap_end(&self) -> VirtAddr {
        self.heap_end
    }

    /// Heap length in bytes.
    pub fn heap_len(&self) -> u64 {
        self.heap_end.offset_from(self.heap_start)
    }

    /// Physical base address of each heap page, in virtual order.
    pub fn pages(&self) -> &[Option<PhysAddr>] {
        &self.pages
    }

    /// Number of pages that had a physical translation.
    pub fn present_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Fraction of heap pages that could be translated.
    pub fn completeness(&self) -> f64 {
        if self.pages.is_empty() {
            return 0.0;
        }
        self.present_pages() as f64 / self.pages.len() as f64
    }

    /// Physical address of the heap's first byte, if its page was present
    /// (the lower endpoint the paper's Figure 8 prints).
    pub fn phys_start(&self) -> Option<PhysAddr> {
        self.pages.first().copied().flatten()
    }

    /// Physical address of the heap's last byte, if its page was present
    /// (the upper endpoint the paper's Figure 8 prints).
    pub fn phys_end(&self) -> Option<PhysAddr> {
        let last_offset = (self.heap_len().saturating_sub(1)) % PAGE_SIZE;
        self.pages
            .last()
            .copied()
            .flatten()
            .map(|pa| pa + last_offset)
    }

    /// Translates an arbitrary heap virtual address using the captured pages.
    pub fn translate(&self, va: VirtAddr) -> Option<PhysAddr> {
        if va < self.heap_start || va >= self.heap_end {
            return None;
        }
        let offset = va.offset_from(self.heap_start);
        let page_index = (offset / PAGE_SIZE) as usize;
        self.pages
            .get(page_index)
            .copied()
            .flatten()
            .map(|pa| pa + offset % PAGE_SIZE)
    }
}

/// Captures the heap translation of a running victim through the debugger.
///
/// This is the paper's Step 2: read the maps file, extract the `[heap]` range,
/// then convert every heap page to a physical address via the pagemap.
///
/// # Errors
///
/// Returns [`AttackError::HeapNotFound`] if the maps file has no heap line,
/// [`AttackError::TranslationEmpty`] if no page translated, and
/// [`AttackError::Channel`] if the debugger channel denies access.
pub fn capture_heap_translation(
    debugger: &mut DebugSession,
    kernel: &Kernel,
    pid: Pid,
) -> Result<HeapTranslation, AttackError> {
    let maps = debugger.read_maps(kernel, pid)?;
    let (heap_start, heap_end) =
        parse_heap_range(&maps).ok_or(AttackError::HeapNotFound { pid })?;
    let page_count = (heap_end.offset_from(heap_start).div_ceil(PAGE_SIZE)) as usize;
    let entries = debugger.read_pagemap(kernel, pid, heap_start, page_count)?;
    let pages: Vec<Option<PhysAddr>> = entries
        .iter()
        .map(|entry| entry.frame_number().map(|frame| frame.base_address()))
        .collect();
    if pages.iter().all(|p| p.is_none()) {
        return Err(AttackError::TranslationEmpty { pid });
    }
    Ok(HeapTranslation {
        pid,
        heap_start,
        heap_end,
        pages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use petalinux_sim::{BoardConfig, IsolationPolicy, UserId};
    use vitis_ai_sim::{DpuRunner, ModelKind};

    fn board() -> (Kernel, vitis_ai_sim::LaunchedRun) {
        let mut kernel = Kernel::boot(BoardConfig::tiny_for_tests());
        let run = DpuRunner::new(ModelKind::SqueezeNet)
            .launch(&mut kernel, UserId::new(0))
            .unwrap();
        (kernel, run)
    }

    #[test]
    fn captured_translation_matches_kernel_ground_truth() {
        let (kernel, run) = board();
        let mut dbg = DebugSession::connect(UserId::new(1));
        let translation = capture_heap_translation(&mut dbg, &kernel, run.pid()).unwrap();

        let process = kernel.process(run.pid()).unwrap();
        assert_eq!(translation.pid(), run.pid());
        assert_eq!(translation.heap_start(), process.heap_base());
        assert_eq!(translation.heap_end(), process.heap_end());
        assert_eq!(translation.heap_len(), run.layout().heap_len);
        assert_eq!(translation.completeness(), 1.0);
        assert_eq!(
            translation.pages().len() as u64,
            run.layout().heap_len / PAGE_SIZE
        );

        // Every page agrees with the kernel's own translation.
        for (i, page) in translation.pages().iter().enumerate() {
            let va = translation.heap_start() + (i as u64) * PAGE_SIZE;
            let truth = process.address_space().translate(va).unwrap();
            assert_eq!(page.unwrap(), truth);
        }

        // Point translation inside and outside the heap.
        let mid = translation.heap_start() + 0x730;
        assert_eq!(
            translation.translate(mid),
            process.address_space().translate(mid)
        );
        assert!(translation.translate(translation.heap_end()).is_none());
        assert!(translation
            .translate(translation.heap_start() - 0x1000)
            .is_none());

        // Endpoints exist and are ordered under the sequential allocator.
        let start = translation.phys_start().unwrap();
        let end = translation.phys_end().unwrap();
        assert!(end > start);
    }

    #[test]
    fn capture_fails_without_heap() {
        let mut kernel = Kernel::boot(BoardConfig::tiny_for_tests());
        let pid = kernel.spawn(UserId::new(0), &["idle"]).unwrap();
        let mut dbg = DebugSession::connect(UserId::new(1));
        assert!(matches!(
            capture_heap_translation(&mut dbg, &kernel, pid),
            Err(AttackError::HeapNotFound { .. })
        ));
    }

    #[test]
    fn capture_fails_under_confined_isolation() {
        let mut kernel =
            Kernel::boot(BoardConfig::tiny_for_tests().with_isolation(IsolationPolicy::Confined));
        let run = DpuRunner::new(ModelKind::SqueezeNet)
            .launch(&mut kernel, UserId::new(0))
            .unwrap();
        let mut dbg = DebugSession::connect(UserId::new(1));
        assert!(matches!(
            capture_heap_translation(&mut dbg, &kernel, run.pid()),
            Err(AttackError::Channel(_))
        ));
    }

    #[test]
    fn from_parts_and_accessors() {
        let t = HeapTranslation::from_parts(
            Pid::new(1391),
            VirtAddr::new(0x1000),
            VirtAddr::new(0x3000),
            vec![Some(PhysAddr::new(0x10000)), None],
        );
        assert_eq!(t.present_pages(), 1);
        assert_eq!(t.completeness(), 0.5);
        assert_eq!(t.phys_start(), Some(PhysAddr::new(0x10000)));
        // Last page is absent, so the upper endpoint is unknown.
        assert_eq!(t.phys_end(), None);
        assert_eq!(
            t.translate(VirtAddr::new(0x1010)),
            Some(PhysAddr::new(0x10010))
        );
        assert_eq!(t.translate(VirtAddr::new(0x2010)), None);

        let empty = HeapTranslation::from_parts(
            Pid::new(1),
            VirtAddr::new(0),
            VirtAddr::new(0),
            Vec::new(),
        );
        assert_eq!(empty.completeness(), 0.0);
        assert_eq!(empty.heap_len(), 0);
    }
}
