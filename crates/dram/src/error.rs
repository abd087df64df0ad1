//! Error type for DRAM device operations.

use std::error::Error;
use std::fmt;

use crate::addr::PhysAddr;

/// Errors returned by [`Dram`](crate::Dram) accesses and sanitizer runs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DramError {
    /// The access touches addresses outside the configured DRAM window.
    OutOfRange {
        /// First address of the offending access.
        addr: PhysAddr,
        /// Length of the access in bytes.
        len: u64,
    },
    /// A multi-byte access was not naturally aligned.
    Misaligned {
        /// Address of the offending access.
        addr: PhysAddr,
        /// Required alignment in bytes.
        required: u64,
    },
    /// The requested access length overflows the address space.
    LengthOverflow {
        /// First address of the offending access.
        addr: PhysAddr,
        /// Length of the access in bytes.
        len: u64,
    },
    /// A mutation (fill / scrub) was requested over an empty range.
    ///
    /// Zero-length sanitizer runs are always caller bugs — typically an
    /// end-before-start range whose length underflowed to zero — so the
    /// device rejects them instead of silently recording a no-op scrub.
    EmptyRange {
        /// Address of the offending request.
        addr: PhysAddr,
    },
    /// An address handed to the DDR mapping lies outside the DRAM window, so
    /// it has no (rank, bank group, bank, row, column) decomposition.
    ///
    /// This is the typed form of what [`DdrMapping`](crate::DdrMapping) used
    /// to signal with a bare `None`: every mapping entry point (decompose,
    /// row/bank spans, bank-boundary splitting) now rejects out-of-window
    /// addresses with this same error.
    OutsideWindow {
        /// The address that has no DDR coordinates.
        addr: PhysAddr,
    },
    /// A multi-snapshot read was requested with zero snapshots.
    ///
    /// Like [`DramError::EmptyRange`], a snapshot count of zero is always a
    /// caller bug — fusing zero reads has no defined result — so it is
    /// rejected instead of returning an empty dump.
    ZeroSnapshots,
}

impl fmt::Display for DramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramError::OutOfRange { addr, len } => {
                write!(
                    f,
                    "access at {addr} of {len} bytes is outside the DRAM window"
                )
            }
            DramError::Misaligned { addr, required } => {
                write!(f, "access at {addr} is not {required}-byte aligned")
            }
            DramError::LengthOverflow { addr, len } => {
                write!(
                    f,
                    "access at {addr} of {len} bytes overflows the address space"
                )
            }
            DramError::EmptyRange { addr } => {
                write!(f, "zero-length range at {addr} (end precedes start?)")
            }
            DramError::OutsideWindow { addr } => {
                write!(
                    f,
                    "address {addr} is outside the DRAM window and has no DDR coordinates"
                )
            }
            DramError::ZeroSnapshots => {
                write!(f, "multi-snapshot read requested with zero snapshots")
            }
        }
    }
}

impl Error for DramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = DramError::OutOfRange {
            addr: PhysAddr::new(0x10),
            len: 4,
        };
        assert!(e.to_string().contains("outside the DRAM window"));
        let e = DramError::Misaligned {
            addr: PhysAddr::new(0x11),
            required: 4,
        };
        assert!(e.to_string().contains("not 4-byte aligned"));
        let e = DramError::LengthOverflow {
            addr: PhysAddr::new(u64::MAX),
            len: 4,
        };
        assert!(e.to_string().contains("overflows"));
        let e = DramError::EmptyRange {
            addr: PhysAddr::new(0x6_0000_0000),
        };
        assert!(e.to_string().contains("zero-length"));
        let e = DramError::OutsideWindow {
            addr: PhysAddr::new(0x10),
        };
        assert!(e.to_string().contains("no DDR coordinates"));
        assert!(DramError::ZeroSnapshots
            .to_string()
            .contains("zero snapshots"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DramError>();
    }
}
