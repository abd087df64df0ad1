//! A user shell on the board: `ps -ef`, `/proc` reads and `devmem`.
//!
//! The shell is where the board's [`IsolationPolicy`](crate::IsolationPolicy)
//! is enforced.  Under the vulnerable default every command succeeds for every
//! user, which is precisely the gap the paper exploits; under the confined
//! policy cross-user `/proc` reads and non-root `devmem` fail with
//! [`KernelError::PermissionDenied`].

use zynq_dram::{PhysAddr, ScrapeView};
use zynq_mmu::VirtAddr;

use crate::error::KernelError;
use crate::kernel::Kernel;
use crate::process::Pid;
use crate::procfs;
use crate::user::UserId;

/// A shell session bound to a user.
///
/// # Example
///
/// ```
/// use petalinux_sim::{BoardConfig, Kernel, Shell, UserId};
///
/// # fn main() -> Result<(), petalinux_sim::KernelError> {
/// let mut kernel = Kernel::boot(BoardConfig::tiny_for_tests());
/// let pid = kernel.spawn(UserId::new(0), &["./resnet50_pt"])?;
/// kernel.grow_heap(pid, 4096)?;
///
/// let attacker = Shell::new(UserId::new(1));
/// // Vulnerable default: the attacker can read the victim's maps file.
/// let maps = attacker.cat_maps(&kernel, pid)?;
/// assert!(maps.contains("[heap]"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shell {
    user: UserId,
}

impl Shell {
    /// Opens a shell for `user`.
    pub fn new(user: UserId) -> Self {
        Shell { user }
    }

    /// The user this shell belongs to.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// Runs `ps -ef`: lists every running process on the board.
    ///
    /// Process listing is not confined even under the hardened policy,
    /// matching standard Linux behaviour.
    pub fn ps_ef(&self, kernel: &Kernel) -> String {
        procfs::ps_ef(kernel)
    }

    fn check_proc_access(&self, kernel: &Kernel, pid: Pid) -> Result<(), KernelError> {
        let owner = kernel.process(pid)?.user();
        if kernel
            .config()
            .isolation()
            .allows_proc_access(self.user, owner)
        {
            Ok(())
        } else {
            Err(KernelError::PermissionDenied {
                user: self.user,
                operation: "read /proc/<pid> of another user",
            })
        }
    }

    /// Reads `/proc/<pid>/maps`.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::PermissionDenied`] under the confined policy
    /// when `pid` belongs to another user, or [`KernelError::NoSuchProcess`].
    pub fn cat_maps(&self, kernel: &Kernel, pid: Pid) -> Result<String, KernelError> {
        self.check_proc_access(kernel, pid)?;
        Ok(procfs::maps_file(kernel.process(pid)?))
    }

    /// Reads `page_count` entries of `/proc/<pid>/pagemap` starting at the
    /// page containing `start`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Shell::cat_maps`].
    pub fn read_pagemap(
        &self,
        kernel: &Kernel,
        pid: Pid,
        start: VirtAddr,
        page_count: usize,
    ) -> Result<Vec<u8>, KernelError> {
        self.check_proc_access(kernel, pid)?;
        Ok(procfs::pagemap_bytes(
            kernel.process(pid)?,
            start,
            page_count,
        ))
    }

    fn check_devmem(&self, kernel: &Kernel) -> Result<(), KernelError> {
        if kernel.config().isolation().allows_devmem(self.user) {
            Ok(())
        } else {
            Err(KernelError::PermissionDenied {
                user: self.user,
                operation: "devmem physical memory access",
            })
        }
    }

    /// Runs `devmem <addr>`: reads one 32-bit word of physical memory.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::PermissionDenied`] under the confined policy for
    /// non-root users, or a DRAM range/alignment error.
    pub fn devmem(&self, kernel: &Kernel, addr: PhysAddr) -> Result<u32, KernelError> {
        self.check_devmem(kernel)?;
        kernel.read_physical_u32(addr)
    }

    /// Reads `len` bytes of physical memory (the automated form of looping
    /// `devmem` over a range, which is what the paper's scripts do).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Shell::devmem`].
    pub fn devmem_read_bytes(
        &self,
        kernel: &Kernel,
        addr: PhysAddr,
        len: usize,
    ) -> Result<Vec<u8>, KernelError> {
        self.check_devmem(kernel)?;
        let mut buf = vec![0u8; len];
        kernel.read_physical_bytes(addr, &mut buf)?;
        Ok(buf)
    }

    /// The zero-copy form of [`Shell::devmem_read_bytes`]: borrows the range
    /// straight out of the DRAM arena instead of copying it.  Same
    /// permission check; `Ok(None)` when the remanence model forces an owned
    /// read (callers then fall back to the copying form).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Shell::devmem_read_bytes`].
    pub fn devmem_read_view<'k>(
        &self,
        kernel: &'k Kernel,
        addr: PhysAddr,
        len: u64,
    ) -> Result<Option<ScrapeView<'k>>, KernelError> {
        self.check_devmem(kernel)?;
        kernel.read_physical_view(addr, len)
    }

    /// The multi-snapshot form of [`Shell::devmem_read_bytes`]: the same
    /// range read `snapshots` times, one decay tick apart
    /// ([`Kernel::read_physical_snapshots`], which evaluates the decay view
    /// at several ticks per sweep).  Same permission check, applied once for
    /// the whole batch.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Shell::devmem_read_bytes`], plus a rejection of
    /// zero snapshot counts.
    pub fn devmem_read_snapshots(
        &self,
        kernel: &mut Kernel,
        addr: PhysAddr,
        len: usize,
        snapshots: usize,
    ) -> Result<Vec<Vec<u8>>, KernelError> {
        self.check_devmem(kernel)?;
        kernel.read_physical_snapshots(addr, len, snapshots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BoardConfig, IsolationPolicy};

    fn setup(isolation: IsolationPolicy) -> (Kernel, Pid) {
        let mut kernel = Kernel::boot(BoardConfig::tiny_for_tests().with_isolation(isolation));
        let pid = kernel
            .spawn(UserId::new(0), &["./resnet50_pt", "model.xmodel"])
            .unwrap();
        kernel.grow_heap(pid, 2 * 4096).unwrap();
        let heap = kernel.process(pid).unwrap().heap_base();
        kernel
            .write_process_memory(pid, heap, b"resnet50_pt secret bytes")
            .unwrap();
        (kernel, pid)
    }

    #[test]
    fn permissive_policy_allows_full_cross_user_visibility() {
        let (kernel, pid) = setup(IsolationPolicy::Permissive);
        let attacker = Shell::new(UserId::new(1));
        assert_eq!(attacker.user(), UserId::new(1));

        let listing = attacker.ps_ef(&kernel);
        assert!(listing.contains("resnet50_pt"));

        let maps = attacker.cat_maps(&kernel, pid).unwrap();
        assert!(maps.contains("[heap]"));

        let pagemap = attacker
            .read_pagemap(&kernel, pid, kernel.process(pid).unwrap().heap_base(), 2)
            .unwrap();
        assert_eq!(pagemap.len(), 16);

        let heap = kernel.process(pid).unwrap().heap_base();
        let pa = kernel
            .process(pid)
            .unwrap()
            .address_space()
            .translate(heap)
            .unwrap();
        let word = attacker.devmem(&kernel, pa).unwrap();
        assert_eq!(word.to_le_bytes(), *b"resn");
        let bytes = attacker.devmem_read_bytes(&kernel, pa, 11).unwrap();
        assert_eq!(&bytes, b"resnet50_pt");
    }

    #[test]
    fn confined_policy_blocks_cross_user_proc_and_devmem() {
        let (kernel, pid) = setup(IsolationPolicy::Confined);
        let attacker = Shell::new(UserId::new(1));

        // Process listing remains available...
        assert!(attacker.ps_ef(&kernel).contains("resnet50_pt"));
        // ...but maps, pagemap and devmem are denied.
        assert!(matches!(
            attacker.cat_maps(&kernel, pid),
            Err(KernelError::PermissionDenied { .. })
        ));
        assert!(matches!(
            attacker.read_pagemap(&kernel, pid, VirtAddr::new(0), 1),
            Err(KernelError::PermissionDenied { .. })
        ));
        assert!(matches!(
            attacker.devmem(&kernel, kernel.config().dram().base()),
            Err(KernelError::PermissionDenied { .. })
        ));
        assert!(matches!(
            attacker.devmem_read_bytes(&kernel, kernel.config().dram().base(), 4),
            Err(KernelError::PermissionDenied { .. })
        ));

        // The owner and root still succeed.
        let owner = Shell::new(UserId::new(0));
        assert!(owner.cat_maps(&kernel, pid).is_ok());
        assert!(owner.devmem(&kernel, kernel.config().dram().base()).is_ok());
    }

    #[test]
    fn shell_propagates_kernel_errors() {
        let (kernel, _) = setup(IsolationPolicy::Permissive);
        let shell = Shell::new(UserId::new(0));
        assert!(matches!(
            shell.cat_maps(&kernel, Pid::new(4242)),
            Err(KernelError::NoSuchProcess { .. })
        ));
        assert!(shell.devmem(&kernel, PhysAddr::new(0x10)).is_err());
    }
}
