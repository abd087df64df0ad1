//! Physical frame allocation.
//!
//! The allocator's *reuse order* is security-relevant: the paper's offline
//! profiling works because PetaLinux hands out physical frames in a
//! deterministic order, so the physical layout of a model's heap is the same
//! in the attacker's profiling run and in the victim's run.
//! [`AllocationOrder::Randomized`] models the layout-randomization defense the
//! paper's conclusion calls for.

// Lint audit: narrowing casts here operate on values already clamped
// to their target range by the surrounding arithmetic.
#![allow(clippy::cast_possible_truncation)]

use std::collections::{HashSet, VecDeque};

use zynq_dram::{DramConfig, FrameNumber};

use crate::error::MmuError;

/// Policy controlling the order in which physical frames are handed out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[derive(Default)]
pub enum AllocationOrder {
    /// Fresh frames are allocated sequentially and freed frames are reused
    /// most-recently-freed first (deterministic; PetaLinux-like, vulnerable
    /// to offline profiling).
    #[default]
    Sequential,
    /// Fresh frames sequential, freed frames reused oldest first.
    FifoReuse,
    /// Frames are handed out in a pseudo-random order derived from `seed`
    /// (the physical-layout-randomization defense).
    Randomized {
        /// Seed of the deterministic shuffle.
        seed: u64,
    },
}

impl std::fmt::Display for AllocationOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocationOrder::Sequential => write!(f, "sequential"),
            AllocationOrder::FifoReuse => write!(f, "fifo-reuse"),
            AllocationOrder::Randomized { seed } => write!(f, "randomized(seed={seed})"),
        }
    }
}

/// The kernel's physical frame allocator over the user DRAM window.
///
/// # Example
///
/// ```
/// use zynq_dram::DramConfig;
/// use zynq_mmu::FrameAllocator;
///
/// # fn main() -> Result<(), zynq_mmu::MmuError> {
/// let mut alloc = FrameAllocator::new(DramConfig::tiny_for_tests());
/// let a = alloc.allocate()?;
/// let b = alloc.allocate()?;
/// assert_ne!(a, b);
/// alloc.free(a);
/// // Sequential policy reuses the most recently freed frame first.
/// assert_eq!(alloc.allocate()?, a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    config: DramConfig,
    order: AllocationOrder,
    /// Next never-allocated frame index (relative to the window start), used
    /// by the sequential policies.
    next_fresh: u64,
    /// Pre-shuffled fresh frames, used by the randomized policy.
    shuffled_fresh: Vec<u64>,
    free_list: VecDeque<FrameNumber>,
    allocated: HashSet<FrameNumber>,
    rng_state: u64,
    peak_allocated: usize,
}

impl FrameAllocator {
    /// Creates an allocator over the full DRAM window with the default
    /// (sequential, deterministic) policy.
    pub fn new(config: DramConfig) -> Self {
        FrameAllocator::with_order(config, AllocationOrder::Sequential)
    }

    /// Creates an allocator with an explicit allocation-order policy.
    pub fn with_order(config: DramConfig, order: AllocationOrder) -> Self {
        let mut alloc = FrameAllocator {
            config,
            order,
            next_fresh: 0,
            shuffled_fresh: Vec::new(),
            free_list: VecDeque::new(),
            allocated: HashSet::new(),
            rng_state: 0,
            peak_allocated: 0,
        };
        if let AllocationOrder::Randomized { seed } = order {
            alloc.rng_state = seed ^ 0x9e37_79b9_7f4a_7c15;
            if alloc.rng_state == 0 {
                alloc.rng_state = 1;
            }
            let count = config.frame_count();
            let mut fresh: Vec<u64> = (0..count).collect();
            // Fisher–Yates with a xorshift generator; deterministic per seed.
            for i in (1..fresh.len()).rev() {
                let j = (alloc.next_random() % (i as u64 + 1)) as usize;
                fresh.swap(i, j);
            }
            // Pop from the back, so reverse to keep "first" at the end.
            fresh.reverse();
            alloc.shuffled_fresh = fresh;
        }
        alloc
    }

    fn next_random(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// The DRAM configuration this allocator serves.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// The allocation-order policy in effect.
    pub fn order(&self) -> AllocationOrder {
        self.order
    }

    /// Number of frames currently allocated.
    pub fn allocated_count(&self) -> usize {
        self.allocated.len()
    }

    /// Highest number of simultaneously allocated frames observed.
    pub fn peak_allocated(&self) -> usize {
        self.peak_allocated
    }

    /// Number of frames still available.
    pub fn free_count(&self) -> u64 {
        let fresh_left = match self.order {
            AllocationOrder::Randomized { .. } => self.shuffled_fresh.len() as u64,
            _ => self.config.frame_count() - self.next_fresh,
        };
        fresh_left + self.free_list.len() as u64
    }

    /// Returns `true` if `frame` is currently allocated.
    pub fn is_allocated(&self, frame: FrameNumber) -> bool {
        self.allocated.contains(&frame)
    }

    /// Iterates over the frames currently on the free (reuse) list, oldest
    /// freed first.
    ///
    /// The reuse order is the security-relevant contract revival-style
    /// attacks exploit: under [`AllocationOrder::Sequential`] the *last*
    /// frame of this iterator is handed out next, under
    /// [`AllocationOrder::FifoReuse`] the *first*.
    pub fn free_list_frames(&self) -> impl Iterator<Item = FrameNumber> + '_ {
        self.free_list.iter().copied()
    }

    fn frame_at(&self, relative: u64) -> FrameNumber {
        FrameNumber::new(self.config.first_frame().as_u64() + relative)
    }

    /// Allocates one physical frame.
    ///
    /// # Errors
    ///
    /// Returns [`MmuError::OutOfFrames`] when the window is exhausted.
    pub fn allocate(&mut self) -> Result<FrameNumber, MmuError> {
        let frame = match self.order {
            AllocationOrder::Sequential => {
                if let Some(frame) = self.free_list.pop_back() {
                    frame
                } else {
                    self.take_fresh()?
                }
            }
            AllocationOrder::FifoReuse => {
                if let Some(frame) = self.free_list.pop_front() {
                    frame
                } else {
                    self.take_fresh()?
                }
            }
            AllocationOrder::Randomized { .. } => {
                let total = self.free_list.len() + self.shuffled_fresh.len();
                if total == 0 {
                    return Err(MmuError::OutOfFrames);
                }
                let pick = (self.next_random() % total as u64) as usize;
                if pick < self.free_list.len() {
                    self.free_list.remove(pick).expect("index in range")
                } else {
                    let rel = self.shuffled_fresh.pop().expect("non-empty");
                    self.frame_at(rel)
                }
            }
        };
        self.allocated.insert(frame);
        self.peak_allocated = self.peak_allocated.max(self.allocated.len());
        Ok(frame)
    }

    fn take_fresh(&mut self) -> Result<FrameNumber, MmuError> {
        if self.next_fresh >= self.config.frame_count() {
            return Err(MmuError::OutOfFrames);
        }
        let frame = self.frame_at(self.next_fresh);
        self.next_fresh += 1;
        Ok(frame)
    }

    /// Allocates `count` frames.
    ///
    /// # Errors
    ///
    /// Returns [`MmuError::OutOfFrames`] if fewer than `count` frames remain;
    /// in that case no frames are leaked (all partial allocations are freed).
    pub fn allocate_many(&mut self, count: usize) -> Result<Vec<FrameNumber>, MmuError> {
        let mut frames = Vec::with_capacity(count);
        for _ in 0..count {
            match self.allocate() {
                Ok(f) => frames.push(f),
                Err(e) => {
                    for f in frames {
                        self.free(f);
                    }
                    return Err(e);
                }
            }
        }
        Ok(frames)
    }

    /// Returns a frame to the allocator.
    ///
    /// # Panics
    ///
    /// Panics if the frame was not currently allocated (double free).
    pub fn free(&mut self, frame: FrameNumber) {
        assert!(
            self.allocated.remove(&frame),
            "double free of physical frame {frame}"
        );
        self.free_list.push_back(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn allocator(order: AllocationOrder) -> FrameAllocator {
        FrameAllocator::with_order(DramConfig::tiny_for_tests(), order)
    }

    #[test]
    fn sequential_allocates_in_order_and_reuses_lifo() {
        let mut a = allocator(AllocationOrder::Sequential);
        let f0 = a.allocate().unwrap();
        let f1 = a.allocate().unwrap();
        let f2 = a.allocate().unwrap();
        assert_eq!(f1.as_u64(), f0.as_u64() + 1);
        assert_eq!(f2.as_u64(), f1.as_u64() + 1);
        a.free(f0);
        a.free(f1);
        // LIFO: most recently freed first.
        assert_eq!(a.allocate().unwrap(), f1);
        assert_eq!(a.allocate().unwrap(), f0);
    }

    #[test]
    fn fifo_reuse_returns_oldest_freed_first() {
        let mut a = allocator(AllocationOrder::FifoReuse);
        let f0 = a.allocate().unwrap();
        let f1 = a.allocate().unwrap();
        a.free(f0);
        a.free(f1);
        assert_eq!(a.allocate().unwrap(), f0);
        assert_eq!(a.allocate().unwrap(), f1);
    }

    #[test]
    fn deterministic_reuse_gives_identical_layout_across_runs() {
        // This is the property the paper's offline profiling relies on: two
        // identical allocation traces produce identical physical layouts.
        let run = || {
            let mut a = allocator(AllocationOrder::Sequential);
            let first: Vec<_> = (0..8).map(|_| a.allocate().unwrap()).collect();
            for f in &first {
                a.free(*f);
            }
            (0..8).map(|_| a.allocate().unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn randomized_layouts_differ_across_seeds_but_are_reproducible() {
        let layout = |seed| {
            let mut a = allocator(AllocationOrder::Randomized { seed });
            (0..16).map(|_| a.allocate().unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(layout(7), layout(7));
        assert_ne!(layout(7), layout(8));
        // And differs from the deterministic layout.
        let mut seq = allocator(AllocationOrder::Sequential);
        let seq_layout: Vec<_> = (0..16).map(|_| seq.allocate().unwrap()).collect();
        assert_ne!(layout(7), seq_layout);
    }

    #[test]
    fn exhaustion_returns_out_of_frames() {
        let mut a = allocator(AllocationOrder::Sequential);
        let total = a.config().frame_count();
        for _ in 0..total {
            a.allocate().unwrap();
        }
        assert!(matches!(a.allocate(), Err(MmuError::OutOfFrames)));
        assert_eq!(a.free_count(), 0);
        assert_eq!(a.allocated_count() as u64, total);
    }

    #[test]
    fn allocate_many_rolls_back_on_failure() {
        let cfg = DramConfig::tiny_for_tests();
        let total = cfg.frame_count() as usize;
        let mut a = FrameAllocator::new(cfg);
        assert!(a.allocate_many(total + 1).is_err());
        // Nothing leaked.
        assert_eq!(a.allocated_count(), 0);
        let frames = a.allocate_many(total).unwrap();
        assert_eq!(frames.len(), total);
    }

    #[test]
    fn counters_track_allocation_state() {
        let mut a = allocator(AllocationOrder::Sequential);
        assert_eq!(a.allocated_count(), 0);
        let f = a.allocate().unwrap();
        assert!(a.is_allocated(f));
        assert_eq!(a.peak_allocated(), 1);
        a.free(f);
        assert!(!a.is_allocated(f));
        assert_eq!(a.peak_allocated(), 1);
        assert_eq!(a.order(), AllocationOrder::Sequential);
        assert_eq!(AllocationOrder::default(), AllocationOrder::Sequential);
        assert_eq!(
            AllocationOrder::Randomized { seed: 3 }.to_string(),
            "randomized(seed=3)"
        );
    }

    #[test]
    fn free_list_exposes_reuse_order() {
        // The revival attack path depends on exactly this contract: a
        // terminated process's frames sit on the free list in free order, and
        // the policy determines which end is reused first.
        for order in [AllocationOrder::Sequential, AllocationOrder::FifoReuse] {
            let mut a = allocator(order);
            let f0 = a.allocate().unwrap();
            let f1 = a.allocate().unwrap();
            let f2 = a.allocate().unwrap();
            a.free(f0);
            a.free(f2);
            a.free(f1);
            let listed: Vec<_> = a.free_list_frames().collect();
            assert_eq!(listed, vec![f0, f2, f1], "oldest freed first ({order})");
            let expected_next = match order {
                AllocationOrder::Sequential => f1, // LIFO: most recently freed
                _ => f0,                           // FIFO: oldest freed
            };
            assert_eq!(a.allocate().unwrap(), expected_next);
        }
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = allocator(AllocationOrder::Sequential);
        let f = a.allocate().unwrap();
        a.free(f);
        a.free(f);
    }

    #[test]
    fn randomized_exhaustion_and_reuse() {
        let mut a = allocator(AllocationOrder::Randomized { seed: 1 });
        let total = a.config().frame_count() as usize;
        let frames = a.allocate_many(total).unwrap();
        assert!(matches!(a.allocate(), Err(MmuError::OutOfFrames)));
        for f in frames {
            a.free(f);
        }
        assert_eq!(a.free_count(), total as u64);
        assert!(a.allocate().is_ok());
    }

    proptest! {
        #[test]
        fn prop_no_frame_is_handed_out_twice(ops in proptest::collection::vec(any::<bool>(), 1..200)) {
            let mut a = allocator(AllocationOrder::Sequential);
            let mut live = Vec::new();
            for op in ops {
                if op || live.is_empty() {
                    if let Ok(f) = a.allocate() {
                        prop_assert!(!live.contains(&f), "frame {f} double-allocated");
                        live.push(f);
                    }
                } else {
                    let f = live.pop().unwrap();
                    a.free(f);
                }
            }
        }

        #[test]
        fn prop_all_orders_respect_window_bounds(seed in any::<u64>()) {
            for order in [AllocationOrder::Sequential, AllocationOrder::FifoReuse, AllocationOrder::Randomized { seed }] {
                let mut a = allocator(order);
                for _ in 0..32 {
                    let f = a.allocate().unwrap();
                    prop_assert!(a.config().contains_frame(f));
                }
            }
        }
    }
}
