//! A 4-level, 4 KiB-granule page table (ARMv8 / Linux style).
//!
//! The table maps virtual pages to physical frames.  The walker is a plain
//! software radix tree — the simulation does not store translation tables in
//! simulated DRAM — but the *information content* matches what Linux exposes
//! through `/proc/<pid>/pagemap`, which is all the attack consumes.

// Lint audit: indexes and slice bounds here are established by the
// surrounding length checks / loop invariants before use.
#![allow(clippy::indexing_slicing)]

use zynq_dram::{FrameNumber, PhysAddr};

use crate::addr::{PageNumber, VirtAddr};
use crate::error::MmuError;

const ENTRIES_PER_TABLE: usize = 512;
const LEAF_LEVEL: usize = 3;

/// Access permissions of a mapped page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PagePermissions {
    /// Page may be read.
    pub read: bool,
    /// Page may be written.
    pub write: bool,
    /// Page may be executed.
    pub execute: bool,
}

impl PagePermissions {
    /// Read/write data permissions (`rw-`), the permissions of heap pages.
    pub const fn read_write() -> Self {
        PagePermissions {
            read: true,
            write: true,
            execute: false,
        }
    }

    /// Read-only permissions (`r--`).
    pub const fn read_only() -> Self {
        PagePermissions {
            read: true,
            write: false,
            execute: false,
        }
    }

    /// Read/execute permissions (`r-x`), the permissions of text pages.
    pub const fn read_execute() -> Self {
        PagePermissions {
            read: true,
            write: false,
            execute: true,
        }
    }

    /// Renders the permission triple the way `/proc/<pid>/maps` does
    /// (e.g. `rw-`), without the shared/private column.
    pub fn to_maps_string(self) -> String {
        format!(
            "{}{}{}",
            if self.read { 'r' } else { '-' },
            if self.write { 'w' } else { '-' },
            if self.execute { 'x' } else { '-' },
        )
    }
}

impl Default for PagePermissions {
    fn default() -> Self {
        PagePermissions::read_write()
    }
}

#[derive(Debug, Clone)]
struct Leaf {
    frame: FrameNumber,
    perms: PagePermissions,
}

#[derive(Debug, Clone)]
enum Node {
    Table(Box<Table>),
    Leaf(Leaf),
}

#[derive(Debug, Clone)]
struct Table {
    entries: Vec<Option<Node>>,
}

impl Table {
    fn new() -> Self {
        Table {
            entries: (0..ENTRIES_PER_TABLE).map(|_| None).collect(),
        }
    }
}

/// A per-process page table mapping virtual pages to physical frames.
///
/// # Example
///
/// ```
/// use zynq_dram::FrameNumber;
/// use zynq_mmu::{PagePermissions, PageTable, VirtAddr};
///
/// # fn main() -> Result<(), zynq_mmu::MmuError> {
/// let mut table = PageTable::new();
/// let va = VirtAddr::new(0xaaaa_ee77_5000);
/// table.map(va.page_number(), FrameNumber::new(0x61c6d), PagePermissions::read_write())?;
/// let pa = table.translate(va + 0x730).expect("mapped");
/// assert_eq!(pa.as_u64(), 0x61c6d730);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    root: Table,
    mapped: usize,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        PageTable {
            root: Table::new(),
            mapped: 0,
        }
    }

    /// Number of pages currently mapped.
    pub fn mapped_count(&self) -> usize {
        self.mapped
    }

    /// Maps a virtual page to a physical frame.
    ///
    /// # Errors
    ///
    /// Returns [`MmuError::AlreadyMapped`] if the page already has a mapping.
    pub fn map(
        &mut self,
        page: PageNumber,
        frame: FrameNumber,
        perms: PagePermissions,
    ) -> Result<(), MmuError> {
        let mut table = &mut self.root;
        for level in 0..LEAF_LEVEL {
            let idx = page.table_index(level);
            let slot = &mut table.entries[idx];
            match slot {
                Some(Node::Table(_)) => {}
                Some(Node::Leaf(_)) => unreachable!("leaf node above leaf level"),
                None => *slot = Some(Node::Table(Box::new(Table::new()))),
            }
            table = match slot {
                Some(Node::Table(t)) => t,
                _ => unreachable!(),
            };
        }
        let idx = page.table_index(LEAF_LEVEL);
        let slot = &mut table.entries[idx];
        if slot.is_some() {
            return Err(MmuError::AlreadyMapped {
                page: page.base_address(),
            });
        }
        *slot = Some(Node::Leaf(Leaf { frame, perms }));
        self.mapped += 1;
        Ok(())
    }

    /// Removes the mapping of a virtual page, returning the frame it pointed
    /// to.
    ///
    /// # Errors
    ///
    /// Returns [`MmuError::NotMapped`] if the page is not mapped.
    pub fn unmap(&mut self, page: PageNumber) -> Result<FrameNumber, MmuError> {
        let not_mapped = MmuError::NotMapped {
            page: page.base_address(),
        };
        let mut table = &mut self.root;
        for level in 0..LEAF_LEVEL {
            let idx = page.table_index(level);
            table = match &mut table.entries[idx] {
                Some(Node::Table(t)) => t,
                _ => return Err(not_mapped),
            };
        }
        let idx = page.table_index(LEAF_LEVEL);
        match table.entries[idx].take() {
            Some(Node::Leaf(leaf)) => {
                self.mapped -= 1;
                Ok(leaf.frame)
            }
            Some(other) => {
                table.entries[idx] = Some(other);
                Err(not_mapped)
            }
            None => Err(not_mapped),
        }
    }

    fn leaf(&self, page: PageNumber) -> Option<&Leaf> {
        let mut table = &self.root;
        for level in 0..LEAF_LEVEL {
            let idx = page.table_index(level);
            table = match table.entries[idx].as_ref()? {
                Node::Table(t) => t,
                Node::Leaf(_) => return None,
            };
        }
        match table.entries[page.table_index(LEAF_LEVEL)].as_ref()? {
            Node::Leaf(leaf) => Some(leaf),
            Node::Table(_) => None,
        }
    }

    /// Returns the frame a virtual page maps to, if mapped.
    pub fn translate_page(&self, page: PageNumber) -> Option<FrameNumber> {
        self.leaf(page).map(|l| l.frame)
    }

    /// Returns the permissions of a mapped page.
    pub fn permissions(&self, page: PageNumber) -> Option<PagePermissions> {
        self.leaf(page).map(|l| l.perms)
    }

    /// Translates a virtual address to a physical address, if its page is
    /// mapped.
    pub fn translate(&self, va: VirtAddr) -> Option<PhysAddr> {
        self.translate_page(va.page_number())
            .map(|frame| frame.base_address() + va.page_offset())
    }

    /// Collects every `(page, frame)` mapping, sorted by page number.
    pub fn mappings(&self) -> Vec<(PageNumber, FrameNumber)> {
        fn walk(table: &Table, prefix: u64, out: &mut Vec<(PageNumber, FrameNumber)>) {
            for (idx, slot) in table.entries.iter().enumerate() {
                let Some(node) = slot else { continue };
                let next_prefix = (prefix << 9) | idx as u64;
                match node {
                    Node::Table(t) => walk(t, next_prefix, out),
                    Node::Leaf(leaf) => out.push((PageNumber::new(next_prefix), leaf.frame)),
                }
            }
        }
        let mut out = Vec::with_capacity(self.mapped);
        walk(&self.root, 0, &mut out);
        out.sort_by_key(|(page, _)| *page);
        out
    }
}

impl Default for PageTable {
    fn default() -> Self {
        PageTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn map_translate_unmap_cycle() {
        let mut pt = PageTable::new();
        let va = VirtAddr::new(0xaaaa_ee77_5000);
        let frame = FrameNumber::new(0x61c6d);
        pt.map(va.page_number(), frame, PagePermissions::read_write())
            .unwrap();
        assert_eq!(pt.mapped_count(), 1);
        assert_eq!(pt.translate(va + 0x730).unwrap().as_u64(), 0x61c6d730);
        assert_eq!(pt.translate_page(va.page_number()), Some(frame));
        assert_eq!(
            pt.permissions(va.page_number()),
            Some(PagePermissions::read_write())
        );
        assert_eq!(pt.unmap(va.page_number()).unwrap(), frame);
        assert_eq!(pt.mapped_count(), 0);
        assert!(pt.translate(va).is_none());
    }

    #[test]
    fn double_map_is_rejected() {
        let mut pt = PageTable::new();
        let page = VirtAddr::new(0x1000).page_number();
        pt.map(page, FrameNumber::new(1), PagePermissions::default())
            .unwrap();
        assert!(matches!(
            pt.map(page, FrameNumber::new(2), PagePermissions::default()),
            Err(MmuError::AlreadyMapped { .. })
        ));
    }

    #[test]
    fn unmap_unmapped_is_rejected() {
        let mut pt = PageTable::new();
        assert!(matches!(
            pt.unmap(VirtAddr::new(0x1000).page_number()),
            Err(MmuError::NotMapped { .. })
        ));
        // A sibling mapping does not make an unmapped page mapped.
        pt.map(
            VirtAddr::new(0x1000).page_number(),
            FrameNumber::new(1),
            PagePermissions::default(),
        )
        .unwrap();
        assert!(pt.unmap(VirtAddr::new(0x2000).page_number()).is_err());
    }

    #[test]
    fn translation_of_unmapped_address_is_none() {
        let pt = PageTable::new();
        assert!(pt.translate(VirtAddr::new(0xdead_beef)).is_none());
        assert!(pt
            .permissions(VirtAddr::new(0x1000).page_number())
            .is_none());
    }

    #[test]
    fn mappings_are_sorted_and_complete() {
        let mut pt = PageTable::new();
        let pages = [0xaaaa_ee77_7000u64, 0xaaaa_ee77_5000, 0xffff_b13b_5000];
        for (i, raw) in pages.iter().enumerate() {
            pt.map(
                VirtAddr::new(*raw).page_number(),
                FrameNumber::new(i as u64 + 10),
                PagePermissions::read_write(),
            )
            .unwrap();
        }
        let maps = pt.mappings();
        assert_eq!(maps.len(), 3);
        assert!(maps.windows(2).all(|w| w[0].0 < w[1].0));
        // The reconstructed page numbers match the original addresses.
        let reconstructed: Vec<u64> = maps
            .iter()
            .map(|(p, _)| p.base_address().as_u64())
            .collect();
        let mut expected: Vec<u64> = pages.to_vec();
        expected.sort_unstable();
        assert_eq!(reconstructed, expected);
    }

    #[test]
    fn permissions_render_like_maps_file() {
        assert_eq!(PagePermissions::read_write().to_maps_string(), "rw-");
        assert_eq!(PagePermissions::read_only().to_maps_string(), "r--");
        assert_eq!(PagePermissions::read_execute().to_maps_string(), "r-x");
        assert_eq!(PagePermissions::default(), PagePermissions::read_write());
    }

    #[test]
    fn default_table_is_empty() {
        assert_eq!(PageTable::default().mapped_count(), 0);
        assert!(PageTable::default().mappings().is_empty());
    }

    proptest! {
        #[test]
        fn prop_map_then_translate_is_consistent(
            raw_pages in proptest::collection::btree_set(0u64..(1 << 30), 1..50)
        ) {
            let mut pt = PageTable::new();
            let pages: Vec<PageNumber> = raw_pages.iter().map(|r| PageNumber::new(*r)).collect();
            for (i, page) in pages.iter().enumerate() {
                pt.map(*page, FrameNumber::new(i as u64), PagePermissions::default()).unwrap();
            }
            prop_assert_eq!(pt.mapped_count(), pages.len());
            for (i, page) in pages.iter().enumerate() {
                prop_assert_eq!(pt.translate_page(*page), Some(FrameNumber::new(i as u64)));
            }
            prop_assert_eq!(pt.mappings().len(), pages.len());
            // Unmap everything and verify emptiness.
            for page in &pages {
                pt.unmap(*page).unwrap();
            }
            prop_assert_eq!(pt.mapped_count(), 0);
        }

        #[test]
        fn prop_translate_preserves_page_offset(raw in 0u64..(1 << 40), frame in 0u64..(1 << 30)) {
            let mut pt = PageTable::new();
            let va = VirtAddr::new(raw);
            pt.map(va.page_number(), FrameNumber::new(frame), PagePermissions::default()).unwrap();
            let pa = pt.translate(va).unwrap();
            prop_assert_eq!(pa.page_offset(), va.page_offset());
            prop_assert_eq!(pa.frame_number().as_u64(), frame);
        }
    }
}
