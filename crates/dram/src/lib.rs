//! # zynq-dram — physical DRAM model for the MSA reproduction
//!
//! This crate models the *local* DRAM attached to a Zynq UltraScale+ MPSoC
//! board (ZCU104 / ZCU102) at the level of detail needed by the memory
//! scraping attack (MSA) described in *"Memory Scraping Attack on Xilinx
//! FPGAs: Private Data Extraction from Terminated Processes"* (DATE 2024):
//!
//! - a byte-accurate, sparsely backed physical memory ([`Dram`]) whose
//!   backing store is **sharded by DRAM bank into contiguous arenas**: one
//!   lazily grown slab plus stripe-presence bitmap per bank, so stripe
//!   addressing is pure offset arithmetic.  Requests are split at bank
//!   boundaries and routed to the per-bank arenas, each read or scrub walking
//!   its range once, and [`Dram::scrape_view`] borrows **zero-copy**
//!   [`ScrapeView`]s straight out of the slabs, searched in one streaming
//!   pass by [`Matcher`],
//! - the DDR address interleaving used by the memory controller
//!   ([`mapping::DdrMapping`]), so row/bank-granular sanitization schemes
//!   (RowClone, RowReset) can be modelled faithfully,
//! - **residue tracking**: every frame remembers which owner (process) last
//!   wrote it, so "memory residue of a terminated process" is a first-class,
//!   queryable concept,
//! - **analog remanence** ([`remanence::RemanenceModel`]): Pentimento-style
//!   per-cell decay of that residue over logical ticks, applied lazily as a
//!   pure view when non-owned residue is read — so the hot paths are
//!   untouched under the perfect (no-decay) model and every read of the same
//!   range sees the same bytes,
//! - end-of-process [`sanitize::SanitizePolicy`] implementations with a cost
//!   model, used by the defense-evaluation experiments.
//!
//! # Example
//!
//! ```
//! use zynq_dram::{Dram, DramConfig, OwnerTag, PhysAddr};
//!
//! # fn main() -> Result<(), zynq_dram::DramError> {
//! let mut dram = Dram::new(DramConfig::zcu104());
//! let base = dram.config().base();
//! let owner = OwnerTag::new(1391);
//!
//! dram.write_u32(base, 0xF7F5_F8FD, owner)?;
//! assert_eq!(dram.read_u32(base)?, 0xF7F5_F8FD);
//!
//! // The word persists (residue) until a sanitizer clears it.
//! assert!(dram.frames_owned_by(owner).count() > 0);
//! # Ok(())
//! # }
//! ```

pub mod addr;
pub mod config;
pub mod device;
pub mod error;
pub mod mapping;
#[cfg(feature = "race-check")]
pub mod racecheck;
pub mod remanence;
pub mod sanitize;
pub mod search;
pub mod stats;
pub mod swap;
pub mod view;

pub use addr::{FrameNumber, PhysAddr, PAGE_SIZE};
pub use config::DramConfig;
pub use device::{Dram, OwnerTag};
pub use error::DramError;
pub use mapping::{DdrCoordinates, DdrMapping};
pub use remanence::{RemanenceModel, ResidueDecay};
pub use sanitize::{SanitizeCost, SanitizePolicy, ScrubReport};
pub use search::Matcher;
pub use stats::DramStats;
pub use swap::{SwapSlot, SwapStore};
pub use view::ScrapeView;
