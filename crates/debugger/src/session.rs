//! Debugger sessions.

// Lint audit: indexes and slice bounds here are established by the
// surrounding length checks / loop invariants before use.
#![allow(clippy::indexing_slicing)]

use petalinux_sim::{Kernel, KernelError, Pid, Shell, UserId};
use zynq_dram::{PhysAddr, ScrapeView};
use zynq_mmu::{pagemap, PagemapEntry, VirtAddr};

use crate::audit::{AuditLog, DebugOp};

/// Summary of one running process as the debugger reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessInfo {
    /// The process id.
    pub pid: Pid,
    /// The owning user.
    pub user: UserId,
    /// The command line, joined with spaces.
    pub command: String,
}

/// A Xilinx-System-Debugger-style session bound to a user.
///
/// The session wraps the board [`Shell`] primitives and adds the pieces the
/// debugger provides on real hardware: structured process listings, pagemap
/// decoding, and virtual-to-physical translation built *only* from
/// debugger-visible data (never from kernel internals).
#[derive(Debug, Clone)]
pub struct DebugSession {
    user: UserId,
    shell: Shell,
    audit: AuditLog,
}

impl DebugSession {
    /// Connects a debugger session for `user`.
    pub fn connect(user: UserId) -> Self {
        DebugSession {
            user,
            shell: Shell::new(user),
            audit: AuditLog::new(),
        }
    }

    /// The user driving this session.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// The audit log of everything this session has done.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Lists every running process (pid, owner, command line).
    ///
    /// Process listing succeeds under both isolation policies, matching
    /// `ps -ef` behaviour.
    pub fn list_processes(&mut self, kernel: &Kernel) -> Vec<ProcessInfo> {
        self.audit.record(self.user, DebugOp::ListProcesses, true);
        kernel
            .running_processes()
            .map(|p| ProcessInfo {
                pid: p.pid(),
                user: p.user(),
                command: p.command_string(),
            })
            .collect()
    }

    /// Finds the pid of the first running process whose command line contains
    /// `needle`.
    pub fn find_pid(&mut self, kernel: &Kernel, needle: &str) -> Option<Pid> {
        self.list_processes(kernel)
            .into_iter()
            .find(|p| p.command.contains(needle))
            .map(|p| p.pid)
    }

    /// Returns `true` if `pid` is still running (used by the attack to wait
    /// for victim termination).
    pub fn is_running(&mut self, kernel: &Kernel, pid: Pid) -> bool {
        self.list_processes(kernel).iter().any(|p| p.pid == pid)
    }

    /// Reads `/proc/<pid>/maps` through the debugger.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::PermissionDenied`] if the isolation policy
    /// confines the debugger and `pid` belongs to another user.
    pub fn read_maps(&mut self, kernel: &Kernel, pid: Pid) -> Result<String, KernelError> {
        let result = self.shell.cat_maps(kernel, pid);
        self.audit
            .record(self.user, DebugOp::ReadMaps { pid }, result.is_ok());
        result
    }

    /// Reads and decodes `page_count` pagemap entries of `pid` starting at
    /// the page containing `start`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DebugSession::read_maps`].
    pub fn read_pagemap(
        &mut self,
        kernel: &Kernel,
        pid: Pid,
        start: VirtAddr,
        page_count: usize,
    ) -> Result<Vec<PagemapEntry>, KernelError> {
        let result = self.shell.read_pagemap(kernel, pid, start, page_count);
        self.audit.record(
            self.user,
            DebugOp::ReadPagemap {
                pid,
                pages: page_count,
            },
            result.is_ok(),
        );
        result.map(|bytes| pagemap::decode_entries(&bytes))
    }

    /// Translates a virtual address of `pid` to a physical address using only
    /// debugger-visible data (one pagemap entry), i.e. the same computation
    /// the paper's `virtual_to_physical` helper performs.
    ///
    /// Returns `Ok(None)` if the page is not present.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DebugSession::read_maps`].
    pub fn translate(
        &mut self,
        kernel: &Kernel,
        pid: Pid,
        va: VirtAddr,
    ) -> Result<Option<PhysAddr>, KernelError> {
        let entries = self.shell.read_pagemap(kernel, pid, va, 1);
        self.audit
            .record(self.user, DebugOp::Translate { pid }, entries.is_ok());
        let entries = entries.map(|bytes| pagemap::decode_entries(&bytes))?;
        Ok(entries.first().and_then(|entry| {
            entry
                .frame_number()
                .map(|frame| frame.base_address() + va.page_offset())
        }))
    }

    /// Reads one 32-bit word of physical memory (`devmem`).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::PermissionDenied`] for non-root users under the
    /// confined policy, or DRAM range/alignment errors.
    pub fn read_phys_u32(&mut self, kernel: &Kernel, addr: PhysAddr) -> Result<u32, KernelError> {
        let result = self.shell.devmem(kernel, addr);
        self.audit.record(
            self.user,
            DebugOp::ReadPhys { addr, len: 4 },
            result.is_ok(),
        );
        result
    }

    /// Reads `len` bytes of physical memory (the automated scraping read).
    ///
    /// # Errors
    ///
    /// Same conditions as [`DebugSession::read_phys_u32`].
    pub fn read_phys_range(
        &mut self,
        kernel: &Kernel,
        addr: PhysAddr,
        len: usize,
    ) -> Result<Vec<u8>, KernelError> {
        let result = self.shell.devmem_read_bytes(kernel, addr, len);
        self.audit.record(
            self.user,
            DebugOp::ReadPhys {
                addr,
                len: len as u64,
            },
            result.is_ok(),
        );
        result
    }

    /// Borrows `len` bytes of physical memory as a zero-copy view over the
    /// DRAM arena instead of copying them out.
    ///
    /// The audit trail is identical to [`DebugSession::read_phys_range`] —
    /// the defender's monitor sees the same `ReadPhys` access pattern either
    /// way.  `Ok(None)` means the board's remanence model forces an owned
    /// read; callers fall back to the copying form.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DebugSession::read_phys_range`].
    pub fn read_phys_view<'k>(
        &mut self,
        kernel: &'k Kernel,
        addr: PhysAddr,
        len: u64,
    ) -> Result<Option<ScrapeView<'k>>, KernelError> {
        let result = self.shell.devmem_read_view(kernel, addr, len);
        self.audit
            .record(self.user, DebugOp::ReadPhys { addr, len }, result.is_ok());
        result
    }

    /// Reads the same `len`-byte physical range `snapshots` times across
    /// successive decay ticks ([`Shell::devmem_read_snapshots`]).
    ///
    /// The kernel may take several snapshots in one decay sweep, but each
    /// snapshot is still one physical read of the range at its own tick, so
    /// the defender's monitor sees one `ReadPhys` audit entry per snapshot —
    /// repeated scraping of the same range is exactly the access pattern a
    /// remanence-accumulation attack leaves behind.  A failed batch records
    /// a single denied entry.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DebugSession::read_phys_range`], plus a rejection
    /// of zero snapshot counts.
    pub fn read_phys_snapshots(
        &mut self,
        kernel: &mut Kernel,
        addr: PhysAddr,
        len: usize,
        snapshots: usize,
    ) -> Result<Vec<Vec<u8>>, KernelError> {
        let result = self
            .shell
            .devmem_read_snapshots(kernel, addr, len, snapshots);
        let entries = result.as_ref().map_or(1, Vec::len).max(1);
        for _ in 0..entries {
            self.audit.record(
                self.user,
                DebugOp::ReadPhys {
                    addr,
                    len: len as u64,
                },
                result.is_ok(),
            );
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use petalinux_sim::{BoardConfig, IsolationPolicy};
    use vitis_ai_sim::{DpuRunner, Image, ModelKind};

    fn board(isolation: IsolationPolicy) -> (Kernel, vitis_ai_sim::LaunchedRun) {
        let mut kernel = Kernel::boot(BoardConfig::tiny_for_tests().with_isolation(isolation));
        let run = DpuRunner::new(ModelKind::Resnet50Pt)
            .with_input(Image::corrupted(224, 224))
            .launch(&mut kernel, UserId::new(0))
            .unwrap();
        (kernel, run)
    }

    #[test]
    fn cross_user_session_sees_victim_under_permissive_policy() {
        let (kernel, run) = board(IsolationPolicy::Permissive);
        let mut dbg = DebugSession::connect(UserId::new(1));
        assert_eq!(dbg.user(), UserId::new(1));

        let procs = dbg.list_processes(&kernel);
        assert!(procs.iter().any(|p| p.pid == run.pid()));
        assert_eq!(dbg.find_pid(&kernel, "resnet50_pt"), Some(run.pid()));
        assert!(dbg.is_running(&kernel, run.pid()));

        let maps = dbg.read_maps(&kernel, run.pid()).unwrap();
        assert!(maps.contains("[heap]"));

        let heap = kernel.process(run.pid()).unwrap().heap_base();
        let entries = dbg.read_pagemap(&kernel, run.pid(), heap, 3).unwrap();
        assert_eq!(entries.len(), 3);
        assert!(entries[0].is_present());

        // Debugger-side translation agrees with the kernel's own translation.
        let pa = dbg
            .translate(&kernel, run.pid(), heap + 0x730)
            .unwrap()
            .unwrap();
        let truth = kernel
            .process(run.pid())
            .unwrap()
            .address_space()
            .translate(heap + 0x730)
            .unwrap();
        assert_eq!(pa, truth);

        // And reading that physical address returns the victim's data.
        let word = dbg.read_phys_u32(&kernel, pa.align_down()).unwrap();
        let mut expected = [0u8; 4];
        kernel
            .read_process_memory(run.pid(), heap, &mut expected)
            .unwrap();
        assert_eq!(word.to_le_bytes(), expected);

        let range = dbg.read_phys_range(&kernel, pa.align_down(), 64).unwrap();
        assert_eq!(range.len(), 64);

        // Audit log captured the whole session.
        assert!(dbg.audit().len() >= 7);
        assert_eq!(dbg.audit().denied_count(), 0);
        assert_eq!(dbg.audit().physical_bytes_read(), 4 + 64);
        assert!(dbg.audit().inspections_of(run.pid()) >= 3);
    }

    #[test]
    fn translation_of_unmapped_address_is_none() {
        let (kernel, run) = board(IsolationPolicy::Permissive);
        let mut dbg = DebugSession::connect(UserId::new(1));
        let far = kernel.process(run.pid()).unwrap().heap_base() + 0x4000_0000;
        assert_eq!(dbg.translate(&kernel, run.pid(), far).unwrap(), None);
    }

    #[test]
    fn confined_policy_denies_and_audits_cross_user_operations() {
        let (kernel, run) = board(IsolationPolicy::Confined);
        let mut dbg = DebugSession::connect(UserId::new(1));

        assert!(dbg.read_maps(&kernel, run.pid()).is_err());
        assert!(dbg
            .read_pagemap(&kernel, run.pid(), VirtAddr::new(0), 1)
            .is_err());
        assert!(dbg.translate(&kernel, run.pid(), VirtAddr::new(0)).is_err());
        assert!(dbg
            .read_phys_u32(&kernel, kernel.config().dram().base())
            .is_err());
        assert!(dbg
            .read_phys_range(&kernel, kernel.config().dram().base(), 16)
            .is_err());
        assert_eq!(dbg.audit().denied_count(), 5);
        assert_eq!(dbg.audit().physical_bytes_read(), 0);

        // The victim's own debugger still works.
        let mut own = DebugSession::connect(UserId::new(0));
        assert!(own.read_maps(&kernel, run.pid()).is_ok());
    }

    #[test]
    fn is_running_reflects_termination() {
        let (mut kernel, run) = board(IsolationPolicy::Permissive);
        let mut dbg = DebugSession::connect(UserId::new(1));
        let pid = run.pid();
        assert!(dbg.is_running(&kernel, pid));
        run.terminate(&mut kernel).unwrap();
        assert!(!dbg.is_running(&kernel, pid));
        assert!(dbg.find_pid(&kernel, "resnet50_pt").is_none());
    }
}
