//! Per-process address spaces: page table + VMAs + heap break.

// Lint audit: indexes and slice bounds here are established by the
// surrounding length checks / loop invariants before use.
#![allow(clippy::indexing_slicing)]

use std::collections::BTreeSet;

use zynq_dram::{FrameNumber, PhysAddr, PAGE_SIZE};

use crate::addr::VirtAddr;
use crate::error::MmuError;
use crate::frame::FrameAllocator;
use crate::layout::AddressSpaceLayout;
use crate::page_table::{PagePermissions, PageTable};
use crate::pagemap::PagemapEntry;

/// The role a virtual memory area plays in the process image.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum VmaKind {
    /// Program text (the executable).
    Text,
    /// The brk-managed heap (`[heap]` in `/proc/<pid>/maps`).
    Heap,
    /// The main thread stack (`[stack]`).
    Stack,
    /// A file-backed or anonymous mmap region with a display label
    /// (e.g. a shared library path or `/dev/dri/renderD128`).
    Mapped {
        /// The pathname column shown in the maps file.
        label: String,
    },
}

impl VmaKind {
    /// The pathname column `/proc/<pid>/maps` shows for this region.
    pub fn maps_label(&self) -> &str {
        match self {
            VmaKind::Text => "/usr/bin/app",
            VmaKind::Heap => "[heap]",
            VmaKind::Stack => "[stack]",
            VmaKind::Mapped { label } => label,
        }
    }
}

/// One virtual memory area of a process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vma {
    /// First address of the region.
    pub start: VirtAddr,
    /// One past the last address of the region.
    pub end: VirtAddr,
    /// Page permissions of the region.
    pub perms: PagePermissions,
    /// What the region is used for.
    pub kind: VmaKind,
}

impl Vma {
    /// Length of the region in bytes.
    pub fn len(&self) -> u64 {
        self.end.offset_from(self.start)
    }

    /// Returns `true` if the region is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns `true` if `addr` falls inside the region.
    pub fn contains(&self, addr: VirtAddr) -> bool {
        addr >= self.start && addr < self.end
    }

    /// Returns `true` if the region overlaps `[start, start + len)`.
    pub fn overlaps(&self, start: VirtAddr, len: u64) -> bool {
        let end = start + len;
        self.start < end && start < self.end
    }
}

/// A process's address space: layout, page table, VMAs and heap break.
///
/// The address space does not own the physical frames — it records them so
/// the kernel can free (and possibly sanitize) them at process termination.
///
/// # Example
///
/// ```
/// use zynq_dram::DramConfig;
/// use zynq_mmu::{AddressSpace, AddressSpaceLayout, FrameAllocator};
///
/// # fn main() -> Result<(), zynq_mmu::MmuError> {
/// let mut frames = FrameAllocator::new(DramConfig::tiny_for_tests());
/// let mut space = AddressSpace::new(AddressSpaceLayout::petalinux_default());
/// space.grow_heap(3 * 4096, &mut frames)?;
/// assert_eq!(space.heap_vma().expect("heap exists").len(), 3 * 4096);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpace {
    layout: AddressSpaceLayout,
    page_table: PageTable,
    vmas: Vec<Vma>,
    brk: VirtAddr,
    owned_frames: Vec<FrameNumber>,
}

impl AddressSpace {
    /// Creates an empty address space with the given layout.
    pub fn new(layout: AddressSpaceLayout) -> Self {
        AddressSpace {
            layout,
            page_table: PageTable::new(),
            vmas: Vec::new(),
            brk: layout.heap_base(),
            owned_frames: Vec::new(),
        }
    }

    /// The layout this space was created with.
    pub fn layout(&self) -> &AddressSpaceLayout {
        &self.layout
    }

    /// The current heap break (one past the last heap byte).
    pub fn brk(&self) -> VirtAddr {
        self.brk
    }

    /// All VMAs, sorted by start address.
    pub fn vmas(&self) -> &[Vma] {
        &self.vmas
    }

    /// The heap VMA, if the heap has been grown at least once.
    pub fn heap_vma(&self) -> Option<&Vma> {
        self.vmas.iter().find(|v| v.kind == VmaKind::Heap)
    }

    /// Physical frames backing this address space, in allocation order.
    pub fn owned_frames(&self) -> &[FrameNumber] {
        &self.owned_frames
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.page_table.mapped_count()
    }

    /// Translates a virtual address to its physical address, if mapped.
    pub fn translate(&self, va: VirtAddr) -> Option<PhysAddr> {
        self.page_table.translate(va)
    }

    /// Produces the `/proc/<pid>/pagemap` entries for `count` consecutive
    /// pages starting at the page containing `start`.
    pub fn pagemap_entries(&self, start: VirtAddr, count: usize) -> Vec<PagemapEntry> {
        let mut page = start.page_number();
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let entry = match self.page_table.translate_page(page) {
                Some(frame) => PagemapEntry::present(frame),
                None => PagemapEntry::absent(),
            };
            entries.push(entry);
            page = page.next();
        }
        entries
    }

    fn sort_vmas(&mut self) {
        self.vmas.sort_by_key(|v| v.start);
    }

    /// Grows the heap by `bytes` (rounded up to whole pages), allocating and
    /// mapping fresh frames.
    ///
    /// Returns the new break.
    ///
    /// # Errors
    ///
    /// Returns [`MmuError::OutOfFrames`] if the allocator is exhausted; in
    /// that case the heap is left unchanged.
    pub fn grow_heap(
        &mut self,
        bytes: u64,
        allocator: &mut FrameAllocator,
    ) -> Result<VirtAddr, MmuError> {
        if bytes == 0 {
            return Ok(self.brk);
        }
        let old_brk = self.brk;
        let new_brk = (old_brk + bytes).align_up();
        let first_new_page = old_brk.align_up();
        let page_count = (new_brk.offset_from(first_new_page) / PAGE_SIZE) as usize;

        let frames = allocator.allocate_many(page_count)?;
        let mut page = first_new_page.page_number();
        for frame in &frames {
            self.page_table
                .map(page, *frame, PagePermissions::read_write())
                .expect("heap pages are mapped exactly once");
            page = page.next();
        }
        self.owned_frames.extend_from_slice(&frames);
        self.brk = new_brk;

        let heap_base = self.layout.heap_base();
        match self.vmas.iter_mut().find(|v| v.kind == VmaKind::Heap) {
            Some(vma) => vma.end = new_brk,
            None => {
                self.vmas.push(Vma {
                    start: heap_base,
                    end: new_brk,
                    perms: PagePermissions::read_write(),
                    kind: VmaKind::Heap,
                });
                self.sort_vmas();
            }
        }
        Ok(new_brk)
    }

    /// Maps a fixed region (text, stack, or an mmap area) of `len` bytes at
    /// `start`, backed by freshly allocated frames.
    ///
    /// # Errors
    ///
    /// Returns [`MmuError::Unaligned`] if `start` is not page aligned,
    /// [`MmuError::RegionOverlap`] if the region overlaps an existing VMA and
    /// [`MmuError::OutOfFrames`] if the allocator is exhausted.
    pub fn map_region(
        &mut self,
        start: VirtAddr,
        len: u64,
        perms: PagePermissions,
        kind: VmaKind,
        allocator: &mut FrameAllocator,
    ) -> Result<(), MmuError> {
        if !start.is_aligned() {
            return Err(MmuError::Unaligned { addr: start });
        }
        let len = VirtAddr::new(len).align_up().as_u64();
        if self.vmas.iter().any(|v| v.overlaps(start, len)) {
            return Err(MmuError::RegionOverlap { start, len });
        }
        let page_count = (len / PAGE_SIZE) as usize;
        let frames = allocator.allocate_many(page_count)?;
        let mut page = start.page_number();
        for frame in &frames {
            self.page_table
                .map(page, *frame, perms)
                .expect("region pages are mapped exactly once");
            page = page.next();
        }
        self.owned_frames.extend_from_slice(&frames);
        self.vmas.push(Vma {
            start,
            end: start + len,
            perms,
            kind,
        });
        self.sort_vmas();
        Ok(())
    }

    /// Tears down the address space: unmaps every page and returns the backing
    /// frames to the allocator.
    ///
    /// Returns the frames that were freed, in the order they were allocated —
    /// the kernel passes this list to the sanitization policy.
    pub fn release_all(&mut self, allocator: &mut FrameAllocator) -> Vec<FrameNumber> {
        self.release_all_except(allocator, &BTreeSet::new()).0
    }

    /// Tears down the address space like [`AddressSpace::release_all`], but
    /// frames present in `shared` are **not** returned to the allocator — a
    /// live copy-on-write peer still maps them, and freeing (or scrubbing)
    /// them here would rip pages out from under that peer.
    ///
    /// Returns `(freed, retained)`: the frames returned to the allocator and
    /// the shared frames left allocated, each in allocation order.
    pub fn release_all_except(
        &mut self,
        allocator: &mut FrameAllocator,
        shared: &BTreeSet<FrameNumber>,
    ) -> (Vec<FrameNumber>, Vec<FrameNumber>) {
        for (page, _) in self.page_table.mappings() {
            self.page_table
                .unmap(page)
                .expect("mapping enumerated above");
        }
        let mut freed = Vec::new();
        let mut retained = Vec::new();
        for frame in std::mem::take(&mut self.owned_frames) {
            if shared.contains(&frame) {
                retained.push(frame);
            } else {
                allocator.free(frame);
                freed.push(frame);
            }
        }
        self.vmas.clear();
        self.brk = self.layout.heap_base();
        (freed, retained)
    }

    /// Replaces the frame backing the page containing `va` with `new_frame`,
    /// keeping read-write permissions — this services a copy-on-write fault
    /// after the kernel has copied the shared frame's bytes into a private
    /// one.
    ///
    /// `new_frame` takes the displaced frame's slot in the owned set (so
    /// allocation order — and hence scrape order — is preserved); the
    /// displaced frame is returned so the caller can drop its share count.
    ///
    /// # Errors
    ///
    /// Returns [`MmuError::NotMapped`] if `va` is not mapped.
    pub fn remap_page(
        &mut self,
        va: VirtAddr,
        new_frame: FrameNumber,
    ) -> Result<FrameNumber, MmuError> {
        let page = va.page_number();
        let old = self.page_table.unmap(page)?;
        self.page_table
            .map(page, new_frame, PagePermissions::read_write())
            .expect("page was mapped above");
        match self.owned_frames.iter().position(|f| *f == old) {
            Some(pos) => self.owned_frames[pos] = new_frame,
            None => self.owned_frames.push(new_frame),
        }
        Ok(old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zynq_dram::DramConfig;

    fn setup() -> (AddressSpace, FrameAllocator) {
        (
            AddressSpace::new(AddressSpaceLayout::petalinux_default()),
            FrameAllocator::new(DramConfig::tiny_for_tests()),
        )
    }

    #[test]
    fn new_space_is_empty() {
        let (space, _) = setup();
        assert_eq!(space.mapped_pages(), 0);
        assert!(space.vmas().is_empty());
        assert!(space.heap_vma().is_none());
        assert_eq!(space.brk(), space.layout().heap_base());
        assert!(space.owned_frames().is_empty());
    }

    #[test]
    fn grow_heap_maps_pages_and_updates_vma() {
        let (mut space, mut frames) = setup();
        let brk = space.grow_heap(PAGE_SIZE * 2 + 100, &mut frames).unwrap();
        assert_eq!(brk, space.layout().heap_base() + 3 * PAGE_SIZE);
        assert_eq!(space.mapped_pages(), 3);
        let heap = space.heap_vma().unwrap();
        assert_eq!(heap.start, space.layout().heap_base());
        assert_eq!(heap.end, brk);
        assert_eq!(heap.kind.maps_label(), "[heap]");
        // Growing again extends the same VMA.
        let brk2 = space.grow_heap(PAGE_SIZE, &mut frames).unwrap();
        assert_eq!(space.heap_vma().unwrap().end, brk2);
        assert_eq!(space.vmas().len(), 1);
        assert_eq!(space.owned_frames().len(), 4);
    }

    #[test]
    fn grow_heap_zero_bytes_is_noop() {
        let (mut space, mut frames) = setup();
        let brk = space.grow_heap(0, &mut frames).unwrap();
        assert_eq!(brk, space.layout().heap_base());
        assert_eq!(space.mapped_pages(), 0);
    }

    #[test]
    fn heap_translation_points_into_allocated_frames() {
        let (mut space, mut frames) = setup();
        space.grow_heap(2 * PAGE_SIZE, &mut frames).unwrap();
        let va = space.layout().heap_base() + PAGE_SIZE + 0x123;
        let pa = space.translate(va).unwrap();
        assert_eq!(pa.page_offset(), 0x123);
        assert!(space.owned_frames().contains(&pa.frame_number()));
        assert!(space.translate(va + 4 * PAGE_SIZE).is_none());
    }

    #[test]
    fn pagemap_entries_reflect_mapping_state() {
        let (mut space, mut frames) = setup();
        space.grow_heap(2 * PAGE_SIZE, &mut frames).unwrap();
        let entries = space.pagemap_entries(space.layout().heap_base(), 4);
        assert_eq!(entries.len(), 4);
        assert!(entries[0].is_present());
        assert!(entries[1].is_present());
        assert!(!entries[2].is_present());
        assert!(!entries[3].is_present());
        assert_eq!(entries[0].frame_number().unwrap(), space.owned_frames()[0]);
    }

    #[test]
    fn map_region_validates_arguments() {
        let (mut space, mut frames) = setup();
        let base = space.layout().mmap_base();
        assert!(matches!(
            space.map_region(
                base + 1,
                PAGE_SIZE,
                PagePermissions::read_write(),
                VmaKind::Stack,
                &mut frames
            ),
            Err(MmuError::Unaligned { .. })
        ));
        space
            .map_region(
                base,
                2 * PAGE_SIZE,
                PagePermissions::read_write(),
                VmaKind::Mapped {
                    label: "/dev/dri/renderD128".to_string(),
                },
                &mut frames,
            )
            .unwrap();
        // Overlapping region rejected.
        assert!(matches!(
            space.map_region(
                base + PAGE_SIZE,
                PAGE_SIZE,
                PagePermissions::read_write(),
                VmaKind::Stack,
                &mut frames
            ),
            Err(MmuError::RegionOverlap { .. })
        ));
        assert_eq!(space.vmas().len(), 1);
        assert_eq!(space.vmas()[0].kind.maps_label(), "/dev/dri/renderD128");
    }

    #[test]
    fn vmas_are_sorted_by_start() {
        let (mut space, mut frames) = setup();
        space
            .map_region(
                space.layout().mmap_base(),
                PAGE_SIZE,
                PagePermissions::read_only(),
                VmaKind::Mapped {
                    label: "libvart.so".to_string(),
                },
                &mut frames,
            )
            .unwrap();
        space
            .map_region(
                space.layout().text_base(),
                PAGE_SIZE,
                PagePermissions::read_execute(),
                VmaKind::Text,
                &mut frames,
            )
            .unwrap();
        space.grow_heap(PAGE_SIZE, &mut frames).unwrap();
        let starts: Vec<_> = space.vmas().iter().map(|v| v.start).collect();
        let mut sorted = starts.clone();
        sorted.sort();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn release_all_frees_every_frame() {
        let (mut space, mut frames) = setup();
        space.grow_heap(3 * PAGE_SIZE, &mut frames).unwrap();
        space
            .map_region(
                space.layout().text_base(),
                PAGE_SIZE,
                PagePermissions::read_execute(),
                VmaKind::Text,
                &mut frames,
            )
            .unwrap();
        let allocated_before = frames.allocated_count();
        assert_eq!(allocated_before, 4);
        let freed = space.release_all(&mut frames);
        assert_eq!(freed.len(), 4);
        assert_eq!(frames.allocated_count(), 0);
        assert_eq!(space.mapped_pages(), 0);
        assert!(space.vmas().is_empty());
        assert_eq!(space.brk(), space.layout().heap_base());
    }

    #[test]
    fn release_all_except_retains_shared_frames() {
        let (mut space, mut frames) = setup();
        space.grow_heap(3 * PAGE_SIZE, &mut frames).unwrap();
        let shared: BTreeSet<FrameNumber> = space.owned_frames()[..2].iter().copied().collect();
        let (freed, retained) = space.release_all_except(&mut frames, &shared);
        assert_eq!(freed.len(), 1);
        assert_eq!(retained.len(), 2);
        assert!(retained.iter().all(|f| shared.contains(f)));
        // Retained frames stay allocated — a CoW peer still maps them.
        assert_eq!(frames.allocated_count(), 2);
        for frame in &retained {
            assert!(frames.is_allocated(*frame));
        }
        assert_eq!(space.mapped_pages(), 0);
        assert!(space.owned_frames().is_empty());
    }

    #[test]
    fn remap_page_swaps_the_backing_frame_in_place() {
        let (mut space, mut frames) = setup();
        space.grow_heap(2 * PAGE_SIZE, &mut frames).unwrap();
        let va = space.layout().heap_base() + PAGE_SIZE + 0x40;
        let old_frame = space.translate(va).unwrap().frame_number();
        let old_pos = space
            .owned_frames()
            .iter()
            .position(|f| *f == old_frame)
            .unwrap();
        let private = frames.allocate().unwrap();
        let displaced = space.remap_page(va, private).unwrap();
        assert_eq!(displaced, old_frame);
        assert_eq!(space.translate(va).unwrap().frame_number(), private);
        // The private copy takes the displaced frame's allocation-order slot.
        assert_eq!(space.owned_frames()[old_pos], private);
        assert!(!space.owned_frames().contains(&old_frame));
        // Unmapped addresses still fault.
        assert!(matches!(
            space.remap_page(va + 16 * PAGE_SIZE, private),
            Err(MmuError::NotMapped { .. })
        ));
    }

    #[test]
    fn vma_geometry_helpers() {
        let vma = Vma {
            start: VirtAddr::new(0x1000),
            end: VirtAddr::new(0x3000),
            perms: PagePermissions::read_write(),
            kind: VmaKind::Heap,
        };
        assert_eq!(vma.len(), 0x2000);
        assert!(!vma.is_empty());
        assert!(vma.contains(VirtAddr::new(0x1000)));
        assert!(vma.contains(VirtAddr::new(0x2fff)));
        assert!(!vma.contains(VirtAddr::new(0x3000)));
        assert!(vma.overlaps(VirtAddr::new(0x2000), 0x2000));
        assert!(!vma.overlaps(VirtAddr::new(0x3000), 0x1000));
        let empty = Vma {
            start: VirtAddr::new(0x1000),
            end: VirtAddr::new(0x1000),
            perms: PagePermissions::read_write(),
            kind: VmaKind::Stack,
        };
        assert!(empty.is_empty());
    }

    #[test]
    fn out_of_frames_propagates_and_leaves_heap_unchanged() {
        let mut space = AddressSpace::new(AddressSpaceLayout::petalinux_default());
        let mut frames = FrameAllocator::new(DramConfig::tiny_for_tests());
        let total = frames.config().frame_count();
        let brk_before = space.brk();
        assert!(matches!(
            space.grow_heap((total + 1) * PAGE_SIZE, &mut frames),
            Err(MmuError::OutOfFrames)
        ));
        assert_eq!(space.brk(), brk_before);
        assert_eq!(frames.allocated_count(), 0);
    }
}
