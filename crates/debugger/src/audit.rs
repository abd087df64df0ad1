//! Audit log of debugger operations.
//!
//! The paper's defense discussion implies that a monitoring agent on the board
//! could in principle observe the debugger's unusual access pattern (a burst
//! of pagemap reads followed by thousands of physical reads).  The audit log
//! records every operation a [`DebugSession`](crate::DebugSession) performs so
//! that experiments can quantify this detection surface.

// Lint audit: indexes and slice bounds here are established by the
// surrounding length checks / loop invariants before use.
#![allow(clippy::indexing_slicing)]

use std::fmt;

use petalinux_sim::{Pid, UserId};
use zynq_dram::PhysAddr;

/// The kind of operation a debugger session performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DebugOp {
    /// Listed the running processes.
    ListProcesses,
    /// Read a process's `maps` file.
    ReadMaps {
        /// The inspected process.
        pid: Pid,
    },
    /// Read a range of a process's `pagemap`.
    ReadPagemap {
        /// The inspected process.
        pid: Pid,
        /// Number of page entries read.
        pages: usize,
    },
    /// Translated a virtual address of a process.
    Translate {
        /// The inspected process.
        pid: Pid,
    },
    /// Read raw physical memory.
    ReadPhys {
        /// First address read.
        addr: PhysAddr,
        /// Number of bytes read.
        len: u64,
    },
}

impl fmt::Display for DebugOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DebugOp::ListProcesses => write!(f, "list-processes"),
            DebugOp::ReadMaps { pid } => write!(f, "read-maps pid={pid}"),
            DebugOp::ReadPagemap { pid, pages } => {
                write!(f, "read-pagemap pid={pid} pages={pages}")
            }
            DebugOp::Translate { pid } => write!(f, "translate pid={pid}"),
            DebugOp::ReadPhys { addr, len } => write!(f, "read-phys addr={addr} len={len}"),
        }
    }
}

/// One audit record: who did what, and whether the isolation policy allowed
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditRecord {
    /// The user driving the debugger.
    pub user: UserId,
    /// The operation performed.
    pub op: DebugOp,
    /// `true` if the operation was permitted.
    pub allowed: bool,
}

/// An append-only log of debugger operations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditLog {
    records: Vec<AuditRecord>,
}

impl AuditLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        AuditLog::default()
    }

    /// Appends a record.
    pub fn record(&mut self, user: UserId, op: DebugOp, allowed: bool) {
        self.records.push(AuditRecord { user, op, allowed });
    }

    /// All records, oldest first.
    pub fn records(&self) -> &[AuditRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of denied operations.
    pub fn denied_count(&self) -> usize {
        self.records.iter().filter(|r| !r.allowed).count()
    }

    /// Total bytes of physical memory read through the log's `ReadPhys`
    /// operations (the attack's dominant signature).
    pub fn physical_bytes_read(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.allowed)
            .map(|r| match r.op {
                DebugOp::ReadPhys { len, .. } => len,
                _ => 0,
            })
            .sum()
    }

    /// Number of cross-referencing operations against `pid` (maps, pagemap,
    /// translate).
    pub fn inspections_of(&self, pid: Pid) -> usize {
        self.records
            .iter()
            .filter(|r| match r.op {
                DebugOp::ReadMaps { pid: p }
                | DebugOp::ReadPagemap { pid: p, .. }
                | DebugOp::Translate { pid: p } => p == pid,
                _ => false,
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_log() {
        let log = AuditLog::new();
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        assert_eq!(log.denied_count(), 0);
        assert_eq!(log.physical_bytes_read(), 0);
        assert_eq!(log, AuditLog::default());
    }

    #[test]
    fn records_accumulate_and_aggregate() {
        let mut log = AuditLog::new();
        let attacker = UserId::new(1);
        let victim = Pid::new(1391);
        log.record(attacker, DebugOp::ListProcesses, true);
        log.record(attacker, DebugOp::ReadMaps { pid: victim }, true);
        log.record(
            attacker,
            DebugOp::ReadPagemap {
                pid: victim,
                pages: 10,
            },
            true,
        );
        log.record(attacker, DebugOp::Translate { pid: victim }, true);
        log.record(
            attacker,
            DebugOp::ReadPhys {
                addr: PhysAddr::new(0x6_0000_0000),
                len: 4096,
            },
            true,
        );
        log.record(
            attacker,
            DebugOp::ReadPhys {
                addr: PhysAddr::new(0x6_0000_1000),
                len: 4096,
            },
            false,
        );

        assert_eq!(log.len(), 6);
        assert!(!log.is_empty());
        assert_eq!(log.denied_count(), 1);
        // Only allowed reads count toward the signature.
        assert_eq!(log.physical_bytes_read(), 4096);
        assert_eq!(log.inspections_of(victim), 3);
        assert_eq!(log.inspections_of(Pid::new(7)), 0);
        assert_eq!(log.records()[0].user, attacker);
    }

    #[test]
    fn op_display_is_informative() {
        assert_eq!(DebugOp::ListProcesses.to_string(), "list-processes");
        assert!(DebugOp::ReadMaps { pid: Pid::new(2) }
            .to_string()
            .contains("pid=2"));
        assert!(DebugOp::ReadPagemap {
            pid: Pid::new(2),
            pages: 5
        }
        .to_string()
        .contains("pages=5"));
        assert!(DebugOp::Translate { pid: Pid::new(3) }
            .to_string()
            .contains("translate"));
        assert!(DebugOp::ReadPhys {
            addr: PhysAddr::new(16),
            len: 4
        }
        .to_string()
        .contains("len=4"));
    }
}
