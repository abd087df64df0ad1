//! Address-space layout selection (heap/stack/mmap bases, optional ASLR).
//!
//! The paper points out that PetaLinux applies no randomization to the layout
//! of a process, which is why the heap appears at the same virtual base
//! (`0xaaaaee775000` in the paper's Figure 7) in every run and why profiled
//! offsets transfer from the attacker's run to the victim's run.
//! [`AslrMode::Virtual`] models turning virtual-address randomization on.

use zynq_dram::PAGE_SIZE;

use crate::addr::VirtAddr;

/// Whether and how virtual base addresses are randomized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[derive(Default)]
pub enum AslrMode {
    /// No randomization (PetaLinux default; every run uses identical bases).
    #[default]
    Disabled,
    /// Randomize heap/stack/mmap bases with a deterministic per-boot seed.
    Virtual {
        /// Seed of the per-boot randomization.
        seed: u64,
    },
}

impl std::fmt::Display for AslrMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AslrMode::Disabled => write!(f, "aslr-off"),
            AslrMode::Virtual { seed } => write!(f, "aslr-virtual(seed={seed})"),
        }
    }
}

/// Base addresses of the canonical regions of a process's address space.
///
/// # Example
///
/// ```
/// use zynq_mmu::AddressSpaceLayout;
///
/// let layout = AddressSpaceLayout::petalinux_default();
/// // The paper's Figure 7 heap base.
/// assert_eq!(layout.heap_base().as_u64(), 0xaaaa_ee77_5000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddressSpaceLayout {
    text_base: VirtAddr,
    heap_base: VirtAddr,
    mmap_base: VirtAddr,
    stack_top: VirtAddr,
    aslr: AslrMode,
}

impl AddressSpaceLayout {
    /// The fixed layout PetaLinux gives every aarch64 process, with the bases
    /// the paper observes (heap at `0xaaaaee775000`, shared mappings around
    /// `0xffffb13b5000`).
    pub fn petalinux_default() -> Self {
        AddressSpaceLayout {
            text_base: VirtAddr::new(0xaaaa_c896_0000),
            heap_base: VirtAddr::new(0xaaaa_ee77_5000),
            mmap_base: VirtAddr::new(0xffff_b13b_5000),
            stack_top: VirtAddr::new(0xffff_fff0_0000),
            aslr: AslrMode::Disabled,
        }
    }

    /// A layout with virtual-address randomization applied on top of the
    /// default bases.
    ///
    /// Randomization shifts each base upward by a page-aligned amount of up to
    /// 1 GiB (heap/mmap) or 16 MiB (stack), mirroring Linux's entropy budget.
    pub fn with_aslr(seed: u64) -> Self {
        let default = AddressSpaceLayout::petalinux_default();
        let mut state = seed ^ 0xd1b5_4a32_d192_ed03;
        if state == 0 {
            state = 1;
        }
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let page_shift = |limit_pages: u64, value: u64| (value % limit_pages) * PAGE_SIZE;
        AddressSpaceLayout {
            text_base: default.text_base + page_shift(1 << 10, next()),
            heap_base: default.heap_base + page_shift(1 << 18, next()),
            mmap_base: default.mmap_base + page_shift(1 << 18, next()),
            stack_top: default.stack_top + page_shift(1 << 12, next()),
            aslr: AslrMode::Virtual { seed },
        }
    }

    /// Constructs a layout from a mode: [`AslrMode::Disabled`] gives the
    /// deterministic PetaLinux layout, [`AslrMode::Virtual`] the randomized
    /// one.
    pub fn from_mode(mode: AslrMode) -> Self {
        match mode {
            AslrMode::Disabled => AddressSpaceLayout::petalinux_default(),
            AslrMode::Virtual { seed } => AddressSpaceLayout::with_aslr(seed),
        }
    }

    /// Base of the program text region.
    pub fn text_base(&self) -> VirtAddr {
        self.text_base
    }

    /// Base (lowest address) of the heap.
    pub fn heap_base(&self) -> VirtAddr {
        self.heap_base
    }

    /// Base of the mmap/shared-library region.
    pub fn mmap_base(&self) -> VirtAddr {
        self.mmap_base
    }

    /// Highest address of the stack.
    pub fn stack_top(&self) -> VirtAddr {
        self.stack_top
    }

    /// The randomization mode this layout was built with.
    pub fn aslr(&self) -> AslrMode {
        self.aslr
    }
}

impl Default for AddressSpaceLayout {
    fn default() -> Self {
        AddressSpaceLayout::petalinux_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_layout_matches_paper_heap_base() {
        let layout = AddressSpaceLayout::petalinux_default();
        assert_eq!(layout.heap_base(), VirtAddr::new(0xaaaa_ee77_5000));
        assert!(layout.text_base() < layout.heap_base());
        assert!(layout.heap_base() < layout.mmap_base());
        assert!(layout.mmap_base() < layout.stack_top());
        assert_eq!(layout.aslr(), AslrMode::Disabled);
        assert_eq!(AddressSpaceLayout::default(), layout);
    }

    #[test]
    fn aslr_layouts_are_reproducible_per_seed_and_differ_across_seeds() {
        let a = AddressSpaceLayout::with_aslr(1);
        let b = AddressSpaceLayout::with_aslr(1);
        let c = AddressSpaceLayout::with_aslr(2);
        assert_eq!(a, b);
        assert_ne!(a.heap_base(), c.heap_base());
        assert_ne!(
            a.heap_base(),
            AddressSpaceLayout::petalinux_default().heap_base()
        );
        assert!(matches!(a.aslr(), AslrMode::Virtual { seed: 1 }));
    }

    #[test]
    fn aslr_bases_stay_page_aligned_and_ordered() {
        for seed in 0..32 {
            let layout = AddressSpaceLayout::with_aslr(seed);
            assert!(layout.heap_base().is_aligned());
            assert!(layout.mmap_base().is_aligned());
            assert!(layout.stack_top().is_aligned());
            assert!(layout.text_base() < layout.heap_base());
        }
    }

    #[test]
    fn from_mode_dispatches() {
        assert_eq!(
            AddressSpaceLayout::from_mode(AslrMode::Disabled),
            AddressSpaceLayout::petalinux_default()
        );
        assert_eq!(
            AddressSpaceLayout::from_mode(AslrMode::Virtual { seed: 9 }),
            AddressSpaceLayout::with_aslr(9)
        );
        assert_eq!(AslrMode::default(), AslrMode::Disabled);
        assert_eq!(AslrMode::Disabled.to_string(), "aslr-off");
        assert_eq!(
            AslrMode::Virtual { seed: 4 }.to_string(),
            "aslr-virtual(seed=4)"
        );
    }
}
