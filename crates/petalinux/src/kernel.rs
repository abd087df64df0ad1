//! The simulated PetaLinux kernel: DRAM + frame allocator + process table.

// Lint audit: address arithmetic here is bounds-checked against the
// DRAM window before any narrowing cast or direct index; offsets are
// derived from validated window-relative coordinates.
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use std::collections::{BTreeMap, BTreeSet};

use zynq_dram::{
    sanitize, Dram, FrameNumber, PhysAddr, SanitizePolicy, ScrapeView, ScrubReport, PAGE_SIZE,
};
use zynq_mmu::{
    AddressSpace, AddressSpaceLayout, FrameAllocator, PagePermissions, VirtAddr, VmaKind,
};

use crate::config::BoardConfig;
use crate::error::KernelError;
use crate::process::{Pid, Process};
use crate::user::UserId;

/// The first pid handed out after boot; chosen so spawned pids land in the
/// same range as the paper's figures (victim pid 1391).
const FIRST_PID: u32 = 1389;

#[derive(Debug, Clone)]
struct DeferredScrub {
    due_tick: u64,
    frames: Vec<FrameNumber>,
}

/// The simulated kernel.
///
/// Owns the board's DRAM, the physical frame allocator and the process table.
/// Every mutation of process memory goes through the kernel so that DRAM
/// ownership tags stay accurate — that is what makes "residue of a terminated
/// process" a measurable quantity.
///
/// # Example
///
/// ```
/// use petalinux_sim::{BoardConfig, Kernel, UserId};
///
/// # fn main() -> Result<(), petalinux_sim::KernelError> {
/// let mut kernel = Kernel::boot(BoardConfig::tiny_for_tests());
/// let pid = kernel.spawn(UserId::new(0), &["./resnet50_pt"])?;
/// kernel.grow_heap(pid, 4096)?;
/// let heap = kernel.process(pid)?.heap_base();
/// kernel.write_process_memory(pid, heap, b"resnet50_pt weights...")?;
/// let report = kernel.terminate(pid)?;
/// // Default policy: nothing scrubbed, residue remains.
/// assert_eq!(report.bytes_scrubbed, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Kernel {
    config: BoardConfig,
    dram: Dram,
    allocator: FrameAllocator,
    processes: BTreeMap<Pid, Process>,
    next_pid: u32,
    clock: u64,
    deferred: Vec<DeferredScrub>,
    scrub_reports: Vec<ScrubReport>,
    /// Copy-on-write share counts: frame → number of live address spaces
    /// mapping it.  Entries exist only while a frame is genuinely shared
    /// (count ≥ 2); once a sole holder remains the frame behaves like any
    /// privately owned one.
    cow_shares: BTreeMap<FrameNumber, u32>,
}

/// Drops one holder's claim on a CoW-shared frame, dissolving the entry when
/// a single holder remains.
fn drop_cow_share(shares: &mut BTreeMap<FrameNumber, u32>, frame: FrameNumber) {
    if let Some(count) = shares.get_mut(&frame) {
        *count -= 1;
        if *count <= 1 {
            shares.remove(&frame);
        }
    }
}

impl Kernel {
    /// Boots a kernel with the given board configuration.
    pub fn boot(config: BoardConfig) -> Self {
        let mut dram = Dram::new(config.dram());
        dram.set_remanence(config.remanence());
        Kernel {
            config,
            dram,
            allocator: FrameAllocator::with_order(config.dram(), config.allocation_order()),
            processes: BTreeMap::new(),
            next_pid: FIRST_PID,
            clock: 0,
            deferred: Vec::new(),
            scrub_reports: Vec::new(),
            cow_shares: BTreeMap::new(),
        }
    }

    /// The board configuration this kernel was booted with.
    pub fn config(&self) -> &BoardConfig {
        &self.config
    }

    /// Read access to the board's DRAM.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Read access to the physical frame allocator.
    pub fn allocator(&self) -> &FrameAllocator {
        &self.allocator
    }

    /// The current kernel tick.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Seeds the DRAM remanence decay draws (scenarios pass their cell seed
    /// so decayed scrapes replay exactly).  A no-op observable only under a
    /// non-perfect [`zynq_dram::RemanenceModel`].
    pub fn set_remanence_seed(&mut self, seed: u64) {
        self.dram.set_remanence_seed(seed);
    }

    /// Advances the kernel's logical clock, keeping the DRAM remanence decay
    /// clock in lock-step: every scenario step that moves the kernel clock
    /// (spawns, writes, terminations, explicit [`Kernel::tick`]s) is one unit
    /// of decay time.  Never driven by wall clock.
    fn advance_clock(&mut self, ticks: u64) {
        self.clock += ticks;
        self.dram.advance_remanence(ticks);
    }

    /// Reports produced by every sanitization run so far (one per terminated
    /// process, plus one per completed background scrub).
    pub fn scrub_reports(&self) -> &[ScrubReport] {
        &self.scrub_reports
    }

    /// Advances the kernel clock by `ticks`, running any background scrubs
    /// whose deadline has passed.
    pub fn tick(&mut self, ticks: u64) {
        self.advance_clock(ticks);
        let clock = self.clock;
        let (due, pending): (Vec<_>, Vec<_>) = std::mem::take(&mut self.deferred)
            .into_iter()
            .partition(|d| d.due_tick <= clock);
        self.deferred = pending;
        for scrub in due {
            let report = sanitize::scrub_deferred(
                &mut self.dram,
                &scrub.frames,
                &self.config.sanitize_cost(),
            );
            self.scrub_reports.push(report);
        }
    }

    /// Number of background scrubs still pending.
    pub fn pending_scrubs(&self) -> usize {
        self.deferred.len()
    }

    /// Spawns a new process for `user` with the given command line.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::EmptyCommandLine`] if `cmdline` is empty.
    pub fn spawn(&mut self, user: UserId, cmdline: &[&str]) -> Result<Pid, KernelError> {
        if cmdline.is_empty() {
            return Err(KernelError::EmptyCommandLine);
        }
        let pid = Pid::new(self.next_pid);
        self.next_pid += 1;
        let parent = Pid::new(self.next_pid.saturating_sub(1000).max(1));
        self.insert_process(pid, parent, user, cmdline);
        Ok(pid)
    }

    /// Shared tail of [`Kernel::spawn`] and [`Kernel::spawn_reusing_pid`]:
    /// builds the process record with a fresh address space and advances the
    /// clock.
    fn insert_process(&mut self, pid: Pid, parent: Pid, user: UserId, cmdline: &[&str]) {
        let layout = AddressSpaceLayout::from_mode(self.config.aslr());
        let space = AddressSpace::new(layout);
        let process = Process::new(
            pid,
            parent,
            user,
            cmdline.iter().map(|s| s.to_string()).collect(),
            self.clock,
            space,
        );
        self.processes.insert(pid, process);
        self.advance_clock(1);
    }

    /// Spawns a new process that *reuses* the pid of a terminated one — the
    /// resurrection-style lifecycle in which private data can leak across a
    /// pid's lifetimes.
    ///
    /// On a real busy system the pid counter wraps and terminated pids are
    /// eventually handed out again; this entry point makes that reuse
    /// deterministic for experiments.  The terminated process's record is
    /// replaced by the new process; its DRAM residue (if the sanitize policy
    /// left any) stays in place and keeps its owner tag, which now also
    /// identifies the revived process.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchProcess`] if `pid` was never spawned,
    /// [`KernelError::PidInUse`] if it is still running, and
    /// [`KernelError::EmptyCommandLine`] if `cmdline` is empty.
    pub fn spawn_reusing_pid(
        &mut self,
        user: UserId,
        cmdline: &[&str],
        pid: Pid,
    ) -> Result<Pid, KernelError> {
        if cmdline.is_empty() {
            return Err(KernelError::EmptyCommandLine);
        }
        let previous = self
            .processes
            .get(&pid)
            .ok_or(KernelError::NoSuchProcess { pid })?;
        if previous.is_running() {
            return Err(KernelError::PidInUse { pid });
        }
        let parent = previous.parent();
        self.insert_process(pid, parent, user, cmdline);
        Ok(pid)
    }

    /// Forks a running process: the child gets a byte-identical copy of the
    /// parent's address space whose pages are shared **copy-on-write** — no
    /// frames are copied at fork time, only share counts go up.
    ///
    /// The CoW contract is the residue channel the ForkHeavy schedules
    /// exploit: terminating the parent leaves shared frames allocated (a live
    /// child still maps them), so they never reach the sanitizer's freed list
    /// — the parent's heap survives even a zero-on-free scrub, tagged as the
    /// parent's residue, until the child dies or writes over it.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchProcess`] or
    /// [`KernelError::ProcessTerminated`].
    pub fn fork(&mut self, pid: Pid) -> Result<Pid, KernelError> {
        let parent = self
            .processes
            .get(&pid)
            .ok_or(KernelError::NoSuchProcess { pid })?;
        if !parent.is_running() {
            return Err(KernelError::ProcessTerminated { pid });
        }
        let space = parent.space.clone();
        let user = parent.user();
        let cmdline = parent.cmdline().to_vec();
        let child_pid = Pid::new(self.next_pid);
        self.next_pid += 1;
        for frame in space.owned_frames() {
            // The entry springs to life at 2 (parent + first child) and grows
            // by one per additional holder.
            *self.cow_shares.entry(*frame).or_insert(1) += 1;
        }
        let child = Process::new(child_pid, pid, user, cmdline, self.clock, space);
        self.processes.insert(child_pid, child);
        self.advance_clock(1);
        Ok(child_pid)
    }

    /// Frames currently shared copy-on-write, each with the number of live
    /// address spaces mapping it (always ≥ 2 while listed).
    pub fn cow_shared_frames(&self) -> impl Iterator<Item = (FrameNumber, u32)> + '_ {
        self.cow_shares
            .iter()
            .map(|(frame, count)| (*frame, *count))
    }

    /// Number of CoW-shared frames mapped by `pid`'s address space (zero for
    /// unknown pids).
    pub fn cow_shared_frame_count(&self, pid: Pid) -> usize {
        self.processes.get(&pid).map_or(0, |p| {
            p.space
                .owned_frames()
                .iter()
                .filter(|f| self.cow_shares.contains_key(f))
                .count()
        })
    }

    /// Looks up a process (running or terminated).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchProcess`] if the pid was never spawned.
    pub fn process(&self, pid: Pid) -> Result<&Process, KernelError> {
        self.processes
            .get(&pid)
            .ok_or(KernelError::NoSuchProcess { pid })
    }

    fn running_process_mut(&mut self, pid: Pid) -> Result<&mut Process, KernelError> {
        let process = self
            .processes
            .get_mut(&pid)
            .ok_or(KernelError::NoSuchProcess { pid })?;
        if !process.is_running() {
            return Err(KernelError::ProcessTerminated { pid });
        }
        Ok(process)
    }

    /// Iterates over every process record, running and terminated.
    pub fn processes(&self) -> impl Iterator<Item = &Process> {
        self.processes.values()
    }

    /// Iterates over the running processes only (what `ps -ef` shows).
    pub fn running_processes(&self) -> impl Iterator<Item = &Process> {
        self.processes.values().filter(|p| p.is_running())
    }

    /// Finds the pid of the first *running* process whose command line
    /// contains `needle` (the attacker's "polling for pid" step).
    pub fn find_running_pid(&self, needle: &str) -> Option<Pid> {
        self.running_processes()
            .find(|p| p.command_string().contains(needle))
            .map(|p| p.pid())
    }

    /// Grows a running process's heap by `bytes`, returning the new break.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchProcess`], [`KernelError::ProcessTerminated`]
    /// or a wrapped [`zynq_mmu::MmuError`] on allocation failure.
    pub fn grow_heap(&mut self, pid: Pid, bytes: u64) -> Result<VirtAddr, KernelError> {
        let allocator = &mut self.allocator;
        let process = self
            .processes
            .get_mut(&pid)
            .ok_or(KernelError::NoSuchProcess { pid })?;
        if !process.is_running() {
            return Err(KernelError::ProcessTerminated { pid });
        }
        Ok(process.space.grow_heap(bytes, allocator)?)
    }

    /// Maps a fixed region in a running process's address space.
    ///
    /// # Errors
    ///
    /// Propagates process-lookup and virtual-memory errors.
    pub fn map_region(
        &mut self,
        pid: Pid,
        start: VirtAddr,
        len: u64,
        perms: PagePermissions,
        kind: VmaKind,
    ) -> Result<(), KernelError> {
        let allocator = &mut self.allocator;
        let process = self
            .processes
            .get_mut(&pid)
            .ok_or(KernelError::NoSuchProcess { pid })?;
        if !process.is_running() {
            return Err(KernelError::ProcessTerminated { pid });
        }
        process
            .space
            .map_region(start, len, perms, kind, allocator)?;
        Ok(())
    }

    /// Writes `data` into a running process's memory at virtual address `va`.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnmappedAddress`] if any touched page is not
    /// mapped.
    pub fn write_process_memory(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        data: &[u8],
    ) -> Result<(), KernelError> {
        let owner = pid.owner_tag();
        self.service_cow_faults(pid, va, data.len() as u64)?;
        // Translate page by page, then write through to DRAM.
        let process = self.running_process_mut(pid)?;
        let mut translations = Vec::new();
        let mut offset = 0u64;
        while offset < data.len() as u64 {
            let addr = va + offset;
            let pa = process
                .space
                .translate(addr)
                .ok_or(KernelError::UnmappedAddress { pid, addr })?;
            let page_remaining = zynq_dram::PAGE_SIZE - addr.page_offset();
            let chunk = page_remaining.min(data.len() as u64 - offset);
            translations.push((pa, offset as usize, chunk as usize));
            offset += chunk;
        }
        for (pa, start, len) in translations {
            self.dram
                .write_bytes(pa, &data[start..start + len], owner)?;
        }
        self.advance_clock(1);
        Ok(())
    }

    /// Copy-on-write fault service for an upcoming write of `len` bytes at
    /// `va`: every touched page whose backing frame is shared gets a private
    /// copy first, so the CoW peer keeps seeing the old bytes.
    ///
    /// The private copy is tagged as the *writer's* DRAM ownership; the
    /// displaced frame keeps its original tag and stays mapped by the
    /// remaining holders.
    fn service_cow_faults(&mut self, pid: Pid, va: VirtAddr, len: u64) -> Result<(), KernelError> {
        if self.cow_shares.is_empty() || len == 0 {
            return Ok(());
        }
        let owner = pid.owner_tag();
        let Kernel {
            processes,
            allocator,
            dram,
            cow_shares,
            ..
        } = self;
        let process = processes
            .get_mut(&pid)
            .ok_or(KernelError::NoSuchProcess { pid })?;
        if !process.is_running() {
            return Err(KernelError::ProcessTerminated { pid });
        }
        let mut offset = 0u64;
        while offset < len {
            let addr = va + offset;
            let pa = process
                .space
                .translate(addr)
                .ok_or(KernelError::UnmappedAddress { pid, addr })?;
            let frame = pa.frame_number();
            if cow_shares.contains_key(&frame) {
                let private = allocator.allocate()?;
                let mut page = vec![0u8; PAGE_SIZE as usize];
                dram.read_bytes(frame.base_address(), &mut page)?;
                dram.write_bytes(private.base_address(), &page, owner)?;
                process.space.remap_page(addr, private)?;
                drop_cow_share(cow_shares, frame);
            }
            let page_remaining = PAGE_SIZE - addr.page_offset();
            offset += page_remaining.min(len - offset);
        }
        Ok(())
    }

    /// Reads a running process's memory at virtual address `va` into `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnmappedAddress`] if any touched page is not
    /// mapped.
    pub fn read_process_memory(
        &self,
        pid: Pid,
        va: VirtAddr,
        buf: &mut [u8],
    ) -> Result<(), KernelError> {
        let process = self.process(pid)?;
        if !process.is_running() {
            return Err(KernelError::ProcessTerminated { pid });
        }
        let mut offset = 0u64;
        while offset < buf.len() as u64 {
            let addr = va + offset;
            let pa = process
                .space
                .translate(addr)
                .ok_or(KernelError::UnmappedAddress { pid, addr })?;
            let page_remaining = zynq_dram::PAGE_SIZE - addr.page_offset();
            let chunk = page_remaining.min(buf.len() as u64 - offset) as usize;
            self.dram
                .read_bytes(pa, &mut buf[offset as usize..offset as usize + chunk])?;
            offset += chunk as u64;
        }
        Ok(())
    }

    /// Terminates a running process, freeing its frames and applying the
    /// configured sanitization policy.
    ///
    /// Two residue substrates escape the frame-oriented path here.  Under
    /// memory pressure ([`BoardConfig::with_swap`]) the coldest heap pages are
    /// compressed into the swap store first, where frame scrubbing never
    /// reaches them.  And frames still CoW-shared with a live fork child are
    /// *retained* — not freed, not handed to the sanitizer — so the parent's
    /// bytes survive under the child until it dies or writes over them.
    ///
    /// Returns the sanitizer's report (which records zero scrubbed bytes under
    /// the vulnerable default policy).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::NoSuchProcess`] or
    /// [`KernelError::ProcessTerminated`].
    pub fn terminate(&mut self, pid: Pid) -> Result<ScrubReport, KernelError> {
        if !self
            .processes
            .get(&pid)
            .ok_or(KernelError::NoSuchProcess { pid })?
            .is_running()
        {
            return Err(KernelError::ProcessTerminated { pid });
        }
        self.swap_out_cold_pages(pid)?;
        let clock = self.clock;
        let Kernel {
            processes,
            allocator,
            cow_shares,
            ..
        } = self;
        let process = processes.get_mut(&pid).expect("validated above");
        let shared: BTreeSet<FrameNumber> = process
            .space
            .owned_frames()
            .iter()
            .filter(|f| cow_shares.contains_key(f))
            .copied()
            .collect();
        let (freed, retained) = process.space.release_all_except(allocator, &shared);
        for frame in &retained {
            drop_cow_share(cow_shares, *frame);
        }
        process.mark_terminated(clock);
        let policy = self.config.sanitize_policy();
        let report = policy.apply(
            &mut self.dram,
            pid.owner_tag(),
            &freed,
            &self.config.sanitize_cost(),
        );
        if let SanitizePolicy::Background { delay_ticks } = policy {
            if !report.deferred_frames.is_empty() {
                self.deferred.push(DeferredScrub {
                    due_tick: self.clock + delay_ticks,
                    frames: report.deferred_frames.clone(),
                });
            }
        }
        self.scrub_reports.push(report.clone());
        self.advance_clock(1);
        Ok(report)
    }

    /// Swaps out the coldest fraction of `pid`'s heap (lowest addresses
    /// first) into the compressed swap store, per the board's memory-pressure
    /// knob.  Copy-only: the frames stay mapped and are freed/sanitized by
    /// the normal termination path — the compressed slots are a second
    /// substrate that frame scrubbing never touches.  One page buffer serves
    /// every page of the call: each page is read into it, then compressed
    /// into its own slot.
    fn swap_out_cold_pages(&mut self, pid: Pid) -> Result<(), KernelError> {
        let pressure = u64::from(self.config.swap_pressure());
        if pressure == 0 {
            return Ok(());
        }
        let process = self.process(pid)?;
        let Some(heap) = process.address_space().heap_vma() else {
            return Ok(());
        };
        let heap_start = heap.start;
        let cold_pages = (heap.len() / PAGE_SIZE * pressure).div_ceil(100);
        let mut pages = Vec::new();
        for index in 0..cold_pages {
            let va = heap_start + index * PAGE_SIZE;
            if let Some(pa) = process.address_space().translate(va) {
                pages.push((index, pa));
            }
        }
        let owner = pid.owner_tag();
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        for (index, pa) in pages {
            self.dram.read_bytes(pa, &mut buf)?;
            self.dram.swap_store_mut().swap_out(owner, index, &buf);
        }
        Ok(())
    }

    /// Reads a 32-bit word from physical memory (the kernel-side primitive
    /// behind `devmem`).  Permission checks live in [`crate::Shell`] and the
    /// debugger, not here.
    ///
    /// # Errors
    ///
    /// Propagates DRAM range/alignment errors.
    pub fn read_physical_u32(&self, addr: PhysAddr) -> Result<u32, KernelError> {
        Ok(self.dram.read_u32(addr)?)
    }

    /// Reads raw bytes from physical memory.
    ///
    /// # Errors
    ///
    /// Propagates DRAM range errors.
    pub fn read_physical_bytes(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<(), KernelError> {
        Ok(self.dram.read_bytes(addr, buf)?)
    }

    /// `true` when [`Kernel::read_physical_view`] will hand out borrowed
    /// views (the DRAM remanence model needs no owned decay transform), so
    /// scrapers can pick the zero-copy path without a speculative read.
    pub fn zero_copy_reads_available(&self) -> bool {
        self.dram.supports_borrowed_reads()
    }

    /// Borrows a zero-copy view of physical memory straight out of the DRAM
    /// arena ([`zynq_dram::Dram::scrape_view`]).
    ///
    /// Returns `Ok(None)` when the remanence model requires an owned decay
    /// transform; callers then fall back to [`Kernel::read_physical_bytes`].
    /// When a view is returned it is byte-identical to that owned read.
    ///
    /// # Errors
    ///
    /// Propagates DRAM range errors.
    pub fn read_physical_view(
        &self,
        addr: PhysAddr,
        len: u64,
    ) -> Result<Option<ScrapeView<'_>>, KernelError> {
        Ok(self.dram.scrape_view(addr, len)?)
    }

    /// Reads the same physical range `snapshots` times, one decay tick
    /// apart; the first at the current clock, so one snapshot is
    /// [`Kernel::read_physical_bytes`].  Snapshot `k` is taken after every
    /// background scrub due by `clock + k` has run, as with a
    /// [`Kernel::tick`]`(1)` between reads, and the clock ends
    /// `snapshots - 1` ticks on.  Snapshots between two scrub deadlines are
    /// one [`zynq_dram::Dram::read_ticks`] sweep.
    ///
    /// # Errors
    ///
    /// Propagates DRAM range errors, and rejects a zero snapshot count.
    pub fn read_physical_snapshots(
        &mut self,
        addr: PhysAddr,
        len: usize,
        snapshots: usize,
    ) -> Result<Vec<Vec<u8>>, KernelError> {
        if snapshots == 0 {
            return Err(zynq_dram::DramError::ZeroSnapshots.into());
        }
        let mut reads = Vec::with_capacity(snapshots);
        while reads.len() < snapshots {
            if !reads.is_empty() {
                self.tick(1);
            }
            // A run ends at the next scrub deadline; an overdue scrub runs
            // on the first tick.
            let deadline = self.deferred.iter().map(|d| d.due_tick).min();
            let gap = deadline.map_or(u64::MAX, |due| due.saturating_sub(self.clock));
            let run = usize::try_from(gap)
                .unwrap_or(usize::MAX)
                .clamp(1, snapshots - reads.len());
            reads.extend(self.dram.read_ticks(addr, len, run)?);
            if run > 1 {
                self.tick(run as u64 - 1);
            }
        }
        Ok(reads)
    }

    /// Formats a kernel tick as the `HH:MM` wall-clock string `ps -ef` prints
    /// in its `STIME` column (boot is pinned at 03:51, matching the paper's
    /// figures).
    pub fn format_time(&self, tick: u64) -> String {
        let minutes_since_boot = tick / 60;
        let total = 3 * 60 + 51 + minutes_since_boot;
        format!("{:02}:{:02}", (total / 60) % 24, total % 60)
    }

    /// Ground truth for experiments: number of residue (terminated, not
    /// scrubbed) frames currently in DRAM.
    pub fn residue_frame_count(&self) -> usize {
        self.dram.residue_frames().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ProcessState;
    use zynq_dram::SanitizePolicy;

    fn kernel() -> Kernel {
        Kernel::boot(BoardConfig::tiny_for_tests())
    }

    #[test]
    fn boot_state_is_empty() {
        let k = kernel();
        assert_eq!(k.processes().count(), 0);
        assert_eq!(k.running_processes().count(), 0);
        assert_eq!(k.clock(), 0);
        assert_eq!(k.residue_frame_count(), 0);
        assert_eq!(k.pending_scrubs(), 0);
        assert!(k.scrub_reports().is_empty());
    }

    #[test]
    fn spawn_assigns_increasing_pids_in_paper_range() {
        let mut k = kernel();
        let a = k.spawn(UserId::new(0), &["ps", "-ef"]).unwrap();
        let b = k.spawn(UserId::new(0), &["./resnet50_pt"]).unwrap();
        assert_eq!(a.as_u32(), 1389);
        assert_eq!(b.as_u32(), 1390);
        assert!(k.process(a).unwrap().is_running());
        assert_eq!(k.process(b).unwrap().command_string(), "./resnet50_pt");
    }

    #[test]
    fn spawn_rejects_empty_command_line() {
        let mut k = kernel();
        assert!(matches!(
            k.spawn(UserId::new(0), &[]),
            Err(KernelError::EmptyCommandLine)
        ));
    }

    #[test]
    fn process_lookup_errors() {
        let mut k = kernel();
        assert!(matches!(
            k.process(Pid::new(9999)),
            Err(KernelError::NoSuchProcess { .. })
        ));
        let pid = k.spawn(UserId::new(0), &["a"]).unwrap();
        k.terminate(pid).unwrap();
        assert!(matches!(
            k.grow_heap(pid, 4096),
            Err(KernelError::ProcessTerminated { .. })
        ));
        assert!(matches!(
            k.terminate(pid),
            Err(KernelError::ProcessTerminated { .. })
        ));
    }

    #[test]
    fn memory_write_read_roundtrip_through_virtual_addresses() {
        let mut k = kernel();
        let pid = k.spawn(UserId::new(0), &["victim"]).unwrap();
        k.grow_heap(pid, 3 * 4096).unwrap();
        let heap = k.process(pid).unwrap().heap_base();
        let data: Vec<u8> = (0..6000u32).map(|i| (i % 251) as u8).collect();
        k.write_process_memory(pid, heap + 100, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        k.read_process_memory(pid, heap + 100, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn write_to_unmapped_address_is_rejected() {
        let mut k = kernel();
        let pid = k.spawn(UserId::new(0), &["victim"]).unwrap();
        let heap = k.process(pid).unwrap().heap_base();
        assert!(matches!(
            k.write_process_memory(pid, heap, b"x"),
            Err(KernelError::UnmappedAddress { .. })
        ));
        let mut buf = [0u8; 1];
        assert!(k.read_process_memory(pid, heap, &mut buf).is_err());
    }

    #[test]
    fn termination_with_default_policy_leaves_readable_residue() {
        let mut k = kernel();
        let pid = k.spawn(UserId::new(0), &["./resnet50_pt"]).unwrap();
        k.grow_heap(pid, 4096).unwrap();
        let heap = k.process(pid).unwrap().heap_base();
        k.write_process_memory(pid, heap, b"resnet50_pt").unwrap();
        // Remember the physical location before termination.
        let pa = k
            .process(pid)
            .unwrap()
            .address_space()
            .translate(heap)
            .unwrap();

        let report = k.terminate(pid).unwrap();
        assert_eq!(report.bytes_scrubbed, 0);
        assert!(report.leaves_residue());
        assert_eq!(k.process(pid).unwrap().state(), ProcessState::Terminated);
        assert_eq!(k.running_processes().count(), 0);
        assert!(k.residue_frame_count() > 0);

        // The residue is still readable through physical memory (the attack).
        let mut buf = vec![0u8; 11];
        k.read_physical_bytes(pa, &mut buf).unwrap();
        assert_eq!(&buf, b"resnet50_pt");
    }

    #[test]
    fn termination_with_zero_on_free_clears_residue() {
        let mut k = Kernel::boot(
            BoardConfig::tiny_for_tests().with_sanitize_policy(SanitizePolicy::ZeroOnFree),
        );
        let pid = k.spawn(UserId::new(0), &["victim"]).unwrap();
        k.grow_heap(pid, 4096).unwrap();
        let heap = k.process(pid).unwrap().heap_base();
        k.write_process_memory(pid, heap, b"secret").unwrap();
        let pa = k
            .process(pid)
            .unwrap()
            .address_space()
            .translate(heap)
            .unwrap();

        let report = k.terminate(pid).unwrap();
        assert!(report.bytes_scrubbed >= 4096);
        let mut buf = vec![0u8; 6];
        k.read_physical_bytes(pa, &mut buf).unwrap();
        assert_eq!(buf, vec![0u8; 6]);
        assert_eq!(k.residue_frame_count(), 0);
    }

    #[test]
    fn background_policy_scrubs_after_delay() {
        let mut k = Kernel::boot(
            BoardConfig::tiny_for_tests()
                .with_sanitize_policy(SanitizePolicy::Background { delay_ticks: 50 }),
        );
        let pid = k.spawn(UserId::new(0), &["victim"]).unwrap();
        k.grow_heap(pid, 4096).unwrap();
        let heap = k.process(pid).unwrap().heap_base();
        k.write_process_memory(pid, heap, b"secret").unwrap();
        let pa = k
            .process(pid)
            .unwrap()
            .address_space()
            .translate(heap)
            .unwrap();
        k.terminate(pid).unwrap();
        assert_eq!(k.pending_scrubs(), 1);

        // Within the window the residue is readable.
        let mut buf = vec![0u8; 6];
        k.read_physical_bytes(pa, &mut buf).unwrap();
        assert_eq!(&buf, b"secret");

        // After the window it is gone.
        k.tick(60);
        assert_eq!(k.pending_scrubs(), 0);
        k.read_physical_bytes(pa, &mut buf).unwrap();
        assert_eq!(buf, vec![0u8; 6]);
        // Two reports: the termination itself plus the deferred scrub.
        assert_eq!(k.scrub_reports().len(), 2);
    }

    #[test]
    fn spawn_reusing_pid_revives_a_terminated_pid() {
        let mut k = kernel();
        let victim = k.spawn(UserId::new(0), &["./resnet50_pt"]).unwrap();
        k.grow_heap(victim, 2 * 4096).unwrap();
        let heap = k.process(victim).unwrap().heap_base();
        k.write_process_memory(victim, heap, b"private victim data")
            .unwrap();

        // Reuse is refused while the pid is running.
        assert!(matches!(
            k.spawn_reusing_pid(UserId::new(1), &["revived"], victim),
            Err(KernelError::PidInUse { .. })
        ));
        k.terminate(victim).unwrap();

        // Unknown pids and empty command lines are still rejected.
        assert!(matches!(
            k.spawn_reusing_pid(UserId::new(1), &["x"], Pid::new(9999)),
            Err(KernelError::NoSuchProcess { .. })
        ));
        assert!(matches!(
            k.spawn_reusing_pid(UserId::new(1), &[], victim),
            Err(KernelError::EmptyCommandLine)
        ));

        let revived = k
            .spawn_reusing_pid(UserId::new(1), &["revived"], victim)
            .unwrap();
        assert_eq!(revived, victim);
        let p = k.process(revived).unwrap();
        assert!(p.is_running());
        assert_eq!(p.user(), UserId::new(1));
        assert_eq!(p.command_string(), "revived");
        // Fresh pids continue from where the counter was — reuse does not
        // disturb the deterministic sequence.
        let fresh = k.spawn(UserId::new(0), &["next"]).unwrap();
        assert_eq!(fresh.as_u32(), FIRST_PID + 1);
    }

    #[test]
    fn revived_process_inherits_victim_frames_and_residue() {
        // The lifecycle the Resurrection-style schedule exploits: the victim
        // terminates unsanitized, its frames go to the top of the reuse list,
        // and the next process's heap lands on them with the data intact.
        let mut k = kernel();
        let victim = k.spawn(UserId::new(0), &["victim"]).unwrap();
        k.grow_heap(victim, 3 * 4096).unwrap();
        let heap = k.process(victim).unwrap().heap_base();
        k.write_process_memory(victim, heap, b"secret weights")
            .unwrap();
        let victim_frames: Vec<_> = (0..3)
            .map(|i| {
                k.process(victim)
                    .unwrap()
                    .address_space()
                    .translate(heap + i * 4096)
                    .unwrap()
                    .frame_number()
            })
            .collect();
        k.terminate(victim).unwrap();

        // The freed frames sit on the allocator's reuse list.
        let free: Vec<_> = k.allocator().free_list_frames().collect();
        for f in &victim_frames {
            assert!(free.contains(f), "victim frame {f} must be reusable");
        }

        let revived = k
            .spawn_reusing_pid(UserId::new(1), &["revived"], victim)
            .unwrap();
        k.grow_heap(revived, 3 * 4096).unwrap();
        let new_heap = k.process(revived).unwrap().heap_base();
        let revived_frames: Vec<_> = (0..3)
            .map(|i| {
                k.process(revived)
                    .unwrap()
                    .address_space()
                    .translate(new_heap + i * 4096)
                    .unwrap()
                    .frame_number()
            })
            .collect();
        // Sequential policy: the revived heap is built from the victim's
        // frames (in LIFO order).
        for f in &revived_frames {
            assert!(victim_frames.contains(f));
        }
        // And the revived process can read the victim's residue through its
        // own, freshly mapped heap — the exploitable inheritance.
        let idx = revived_frames
            .iter()
            .position(|f| *f == victim_frames[0])
            .unwrap() as u64;
        let mut leaked = vec![0u8; 14];
        k.read_process_memory(revived, new_heap + idx * 4096, &mut leaked)
            .unwrap();
        assert_eq!(&leaked, b"secret weights");
    }

    #[test]
    fn find_running_pid_matches_command_substring() {
        let mut k = kernel();
        k.spawn(UserId::new(0), &["sh"]).unwrap();
        let victim = k
            .spawn(
                UserId::new(0),
                &["./resnet50_pt", "model.xmodel", "001.jpg"],
            )
            .unwrap();
        assert_eq!(k.find_running_pid("resnet50"), Some(victim));
        assert_eq!(k.find_running_pid("nonexistent"), None);
        k.terminate(victim).unwrap();
        assert_eq!(k.find_running_pid("resnet50"), None);
    }

    #[test]
    fn map_region_and_terminated_process_memory_access() {
        let mut k = kernel();
        let pid = k.spawn(UserId::new(0), &["victim"]).unwrap();
        let mmap_base = k.process(pid).unwrap().address_space().layout().mmap_base();
        k.map_region(
            pid,
            mmap_base,
            4096,
            PagePermissions::read_only(),
            VmaKind::Mapped {
                label: "/dev/dri/renderD128".to_string(),
            },
        )
        .unwrap();
        assert_eq!(k.process(pid).unwrap().address_space().vmas().len(), 1);
        k.terminate(pid).unwrap();
        let mut buf = [0u8; 4];
        assert!(matches!(
            k.read_process_memory(pid, mmap_base, &mut buf),
            Err(KernelError::ProcessTerminated { .. })
        ));
        assert!(matches!(
            k.map_region(
                pid,
                mmap_base,
                4096,
                PagePermissions::read_only(),
                VmaKind::Stack
            ),
            Err(KernelError::ProcessTerminated { .. })
        ));
    }

    #[test]
    fn remanence_board_knob_decays_residue_on_logical_ticks() {
        use zynq_dram::RemanenceModel;
        let mut k = Kernel::boot(
            BoardConfig::tiny_for_tests()
                .with_remanence(RemanenceModel::Exponential { half_life_ticks: 2 }),
        );
        k.set_remanence_seed(42);
        let pid = k.spawn(UserId::new(0), &["victim"]).unwrap();
        k.grow_heap(pid, 4096).unwrap();
        let heap = k.process(pid).unwrap().heap_base();
        k.write_process_memory(pid, heap, &[0xEE; 4096]).unwrap();
        let pa = k
            .process(pid)
            .unwrap()
            .address_space()
            .translate(heap)
            .unwrap();
        k.terminate(pid).unwrap();

        // One logical tick after termination: some bytes already decayed,
        // most survive.
        let mut soon = vec![0u8; 4096];
        k.read_physical_bytes(pa, &mut soon).unwrap();
        let survivors_soon = soon.iter().filter(|&&b| b != 0).count();
        assert!(survivors_soon > 2048, "{survivors_soon}");
        assert!(survivors_soon < 4096, "{survivors_soon}");

        // Many half-lives later the residue is effectively gone — and only
        // logical ticks moved it there, never wall clock.
        k.tick(64);
        let mut late = vec![0u8; 4096];
        k.read_physical_bytes(pa, &mut late).unwrap();
        assert!(late.iter().all(|&b| b == 0));

        // The raw store still tracks the frame as (undecayed) residue; decay
        // is a read view, not a scrub.
        assert_eq!(k.residue_frame_count(), 1);
        assert_eq!(k.dram().residue_bytes(), 4096);
        assert_eq!(k.dram().residue_decay(None).surviving_bytes, 0);
    }

    #[test]
    fn multi_snapshot_reads_tick_the_clock_and_only_lose_bits() {
        use zynq_dram::RemanenceModel;
        let mut k = Kernel::boot(
            BoardConfig::tiny_for_tests()
                .with_remanence(RemanenceModel::Exponential { half_life_ticks: 2 }),
        );
        k.set_remanence_seed(7);
        let pid = k.spawn(UserId::new(0), &["victim"]).unwrap();
        k.grow_heap(pid, 4096).unwrap();
        let heap = k.process(pid).unwrap().heap_base();
        k.write_process_memory(pid, heap, &[0xA5; 4096]).unwrap();
        let pa = k
            .process(pid)
            .unwrap()
            .address_space()
            .translate(heap)
            .unwrap();
        k.terminate(pid).unwrap();

        assert!(matches!(
            k.read_physical_snapshots(pa, 4096, 0),
            Err(KernelError::Dram(zynq_dram::DramError::ZeroSnapshots))
        ));

        let before = k.clock();
        let snaps = k.read_physical_snapshots(pa, 4096, 3).unwrap();
        assert_eq!(snaps.len(), 3);
        // Snapshots 2 and 3 are taken one and two ticks later.
        assert_eq!(k.clock(), before + 2);
        // Decay only clears bits, so each later snapshot is a bitwise subset
        // of the earlier ones.
        for pair in snaps.windows(2) {
            for (earlier, later) in pair[0].iter().zip(&pair[1]) {
                assert_eq!(later & !earlier, 0);
            }
        }
        // The first snapshot matches a plain read taken at the same tick: the
        // clock only advances *between* snapshots, never before the first.
        let mut replay = vec![0u8; 4096];
        let mut fresh = Kernel::boot(
            BoardConfig::tiny_for_tests()
                .with_remanence(RemanenceModel::Exponential { half_life_ticks: 2 }),
        );
        fresh.set_remanence_seed(7);
        let pid = fresh.spawn(UserId::new(0), &["victim"]).unwrap();
        fresh.grow_heap(pid, 4096).unwrap();
        let heap = fresh.process(pid).unwrap().heap_base();
        fresh
            .write_process_memory(pid, heap, &[0xA5; 4096])
            .unwrap();
        fresh.terminate(pid).unwrap();
        fresh.read_physical_bytes(pa, &mut replay).unwrap();
        assert_eq!(snaps[0], replay);
    }

    #[test]
    fn fork_shares_frames_copy_on_write() {
        let mut k = kernel();
        let parent = k.spawn(UserId::new(0), &["victim"]).unwrap();
        k.grow_heap(parent, 2 * 4096).unwrap();
        let heap = k.process(parent).unwrap().heap_base();
        k.write_process_memory(parent, heap, b"parent secret")
            .unwrap();

        let child = k.fork(parent).unwrap();
        assert_ne!(child, parent);
        let cp = k.process(child).unwrap();
        assert!(cp.is_running());
        assert_eq!(cp.parent(), parent);
        assert_eq!(cp.command_string(), "victim");
        // No frames copied: both map the same physical pages.
        assert_eq!(k.cow_shared_frame_count(parent), 2);
        assert_eq!(k.cow_shared_frame_count(child), 2);
        assert!(k.cow_shared_frames().all(|(_, count)| count == 2));
        let pa_parent = k
            .process(parent)
            .unwrap()
            .address_space()
            .translate(heap)
            .unwrap();
        let pa_child = k
            .process(child)
            .unwrap()
            .address_space()
            .translate(heap)
            .unwrap();
        assert_eq!(pa_parent, pa_child);
        // The child reads the parent's bytes through its own mapping.
        let mut leaked = vec![0u8; 13];
        k.read_process_memory(child, heap, &mut leaked).unwrap();
        assert_eq!(&leaked, b"parent secret");

        // A child write faults: the child gets a private copy, the parent
        // keeps the original bytes.
        k.write_process_memory(child, heap, b"child  rewrite")
            .unwrap();
        let pa_after = k
            .process(child)
            .unwrap()
            .address_space()
            .translate(heap)
            .unwrap();
        assert_ne!(pa_after, pa_parent);
        let mut parent_view = vec![0u8; 13];
        k.read_process_memory(parent, heap, &mut parent_view)
            .unwrap();
        assert_eq!(&parent_view, b"parent secret");
        // That page is no longer shared; the second one still is.
        assert_eq!(k.cow_shared_frame_count(parent), 1);
        assert!(k.fork(Pid::new(9999)).is_err());
    }

    #[test]
    fn cow_frames_survive_parent_termination_under_zero_on_free() {
        // The CoW residue channel: zero-on-free scrubs only the freed list,
        // and frames shared with a live child never reach it.
        let mut k = Kernel::boot(
            BoardConfig::tiny_for_tests().with_sanitize_policy(SanitizePolicy::ZeroOnFree),
        );
        let parent = k.spawn(UserId::new(0), &["victim"]).unwrap();
        k.grow_heap(parent, 2 * 4096).unwrap();
        let heap = k.process(parent).unwrap().heap_base();
        k.write_process_memory(parent, heap, b"inherited secret")
            .unwrap();
        let pa = k
            .process(parent)
            .unwrap()
            .address_space()
            .translate(heap)
            .unwrap();
        let child = k.fork(parent).unwrap();

        let report = k.terminate(parent).unwrap();
        // Nothing was freed, so nothing was scrubbed — the whole heap is
        // CoW-retained under the child.
        assert_eq!(report.bytes_scrubbed, 0);
        assert_eq!(k.cow_shared_frame_count(child), 0);
        assert_eq!(k.cow_shared_frames().count(), 0);
        assert!(k.allocator().is_allocated(pa.frame_number()));
        // The parent's bytes are intact, tagged as dead-owner residue.
        let mut buf = vec![0u8; 16];
        k.read_physical_bytes(pa, &mut buf).unwrap();
        assert_eq!(&buf, b"inherited secret");
        assert!(k.residue_frame_count() > 0);

        // When the child later dies, the frames finally reach the sanitizer
        // as part of *its* freed list.
        let report = k.terminate(child).unwrap();
        assert!(report.bytes_scrubbed >= 2 * 4096);
        k.read_physical_bytes(pa, &mut buf).unwrap();
        assert_eq!(buf, vec![0u8; 16]);
    }

    #[test]
    fn swap_pressure_copies_cold_pages_into_the_swap_store() {
        let mut k = Kernel::boot(
            BoardConfig::tiny_for_tests()
                .with_swap(50)
                .with_sanitize_policy(SanitizePolicy::ZeroOnFree),
        );
        let pid = k.spawn(UserId::new(0), &["victim"]).unwrap();
        k.grow_heap(pid, 4 * 4096).unwrap();
        let heap = k.process(pid).unwrap().heap_base();
        k.write_process_memory(pid, heap, b"cold page payload")
            .unwrap();
        let owner = pid.owner_tag();
        assert_eq!(k.dram().swap_store().slot_count(), 0);

        k.terminate(pid).unwrap();
        // 50% of 4 heap pages → the 2 lowest-addressed pages were swapped.
        let store = k.dram().swap_store();
        assert_eq!(store.slot_count(), 2);
        // Frame scrubbing zeroed DRAM but never touched the slots: the
        // payload is recoverable from swap.
        assert_eq!(k.dram().residue_bytes(), 0);
        assert!(store.residue_bytes(Some(owner)) > 0);
        let page = store.read_slot(0).unwrap();
        assert_eq!(&page[..17], b"cold page payload");
        assert_eq!(store.slot(0).unwrap().page_index(), 0);
    }

    #[test]
    fn scrub_reports_stay_monotone_across_pid_reuse() {
        // Reusing a pid must not resurrect (or reset) the sanitize report
        // history: reports are one-per-terminate, not per-pid state.
        let mut k = Kernel::boot(
            BoardConfig::tiny_for_tests().with_sanitize_policy(SanitizePolicy::ZeroOnFree),
        );
        let pid = k.spawn(UserId::new(0), &["victim"]).unwrap();
        k.grow_heap(pid, 4096).unwrap();
        k.terminate(pid).unwrap();
        assert_eq!(k.scrub_reports().len(), 1);

        let revived = k
            .spawn_reusing_pid(UserId::new(1), &["revived"], pid)
            .unwrap();
        // Spawning on a reused pid is not a terminate: count unchanged.
        assert_eq!(k.scrub_reports().len(), 1);
        k.grow_heap(revived, 4096).unwrap();
        k.terminate(revived).unwrap();
        assert_eq!(k.scrub_reports().len(), 2);

        // A second reuse cycle keeps counting up.
        k.spawn_reusing_pid(UserId::new(1), &["again"], pid)
            .unwrap();
        assert_eq!(k.scrub_reports().len(), 2);
        k.terminate(pid).unwrap();
        assert_eq!(k.scrub_reports().len(), 3);
    }

    #[test]
    fn cow_frames_never_enter_the_free_list_while_the_child_lives() {
        // Property test over seeded fork/terminate/write sequences: a frame
        // mapped by a live process must never sit on the allocator's reuse
        // list, no matter how the CoW shares were torn down.
        fn splitmix64(mut x: u64) -> u64 {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        for seed in 0..8u64 {
            let mut k = kernel();
            let root = k.spawn(UserId::new(0), &["victim"]).unwrap();
            k.grow_heap(root, 3 * 4096).unwrap();
            let heap = k.process(root).unwrap().heap_base();
            k.write_process_memory(root, heap, &[0xC0; 3 * 4096])
                .unwrap();
            let mut live = vec![root];
            let mut state = seed.wrapping_mul(0x5851_F42D_4C95_7F2D) + 1;
            for step in 0..24 {
                state = splitmix64(state);
                let target = live[(state % live.len() as u64) as usize];
                match state >> 32 & 3 {
                    0 if live.len() < 6 => {
                        live.push(k.fork(target).unwrap());
                    }
                    1 if live.len() > 1 => {
                        k.terminate(target).unwrap();
                        live.retain(|p| *p != target);
                    }
                    _ => {
                        let off = (state >> 8) % (2 * 4096);
                        k.write_process_memory(target, heap + off, &[step as u8; 64])
                            .unwrap();
                    }
                }
                // Invariant: no live process maps a frame on the free list.
                let free: BTreeSet<FrameNumber> = k.allocator().free_list_frames().collect();
                for pid in &live {
                    for frame in k.process(*pid).unwrap().address_space().owned_frames() {
                        assert!(
                            !free.contains(frame),
                            "seed {seed} step {step}: frame {frame} of live pid {pid} is on the free list"
                        );
                        assert!(k.allocator().is_allocated(*frame));
                    }
                }
            }
        }
    }

    #[test]
    fn time_formatting_matches_ps_style() {
        let k = kernel();
        assert_eq!(k.format_time(0), "03:51");
        assert_eq!(k.format_time(60), "03:52");
        assert_eq!(k.format_time(60 * 60 * 9), "12:51");
    }

    #[test]
    fn physical_reads_validate_addresses() {
        let k = kernel();
        assert!(k.read_physical_u32(PhysAddr::new(0x10)).is_err());
        assert_eq!(k.read_physical_u32(k.config().dram().base()).unwrap(), 0);
    }
}
