//! Processes and their identifiers.

use std::fmt;

use zynq_dram::OwnerTag;
use zynq_mmu::{AddressSpace, VirtAddr};

use crate::user::UserId;

/// A process identifier.
///
/// # Example
///
/// ```
/// use petalinux_sim::Pid;
///
/// let pid = Pid::new(1391);
/// assert_eq!(pid.to_string(), "1391");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(u32);

impl Pid {
    /// Creates a pid from its raw value.
    pub const fn new(raw: u32) -> Self {
        Pid(raw)
    }

    /// Returns the raw pid value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// The DRAM owner tag used to attribute this process's frames.
    pub const fn owner_tag(self) -> OwnerTag {
        OwnerTag::new(self.0)
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for Pid {
    fn from(raw: u32) -> Self {
        Pid(raw)
    }
}

impl From<Pid> for u32 {
    fn from(pid: Pid) -> Self {
        pid.0
    }
}

/// Lifecycle state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessState {
    /// The process is running and appears in `ps -ef`.
    Running,
    /// The process has terminated; it no longer appears in `ps -ef`, but the
    /// kernel keeps its record for ground-truth queries in experiments.
    Terminated,
}

impl fmt::Display for ProcessState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcessState::Running => write!(f, "running"),
            ProcessState::Terminated => write!(f, "terminated"),
        }
    }
}

/// A process on the simulated board.
#[derive(Debug, Clone)]
pub struct Process {
    pid: Pid,
    parent: Pid,
    user: UserId,
    cmdline: Vec<String>,
    state: ProcessState,
    start_tick: u64,
    terminate_tick: Option<u64>,
    pub(crate) space: AddressSpace,
}

impl Process {
    pub(crate) fn new(
        pid: Pid,
        parent: Pid,
        user: UserId,
        cmdline: Vec<String>,
        start_tick: u64,
        space: AddressSpace,
    ) -> Self {
        Process {
            pid,
            parent,
            user,
            cmdline,
            state: ProcessState::Running,
            start_tick,
            terminate_tick: None,
            space,
        }
    }

    /// The process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The parent process id.
    pub fn parent(&self) -> Pid {
        self.parent
    }

    /// The owning user.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// The command line, `argv[0]` first.
    pub fn cmdline(&self) -> &[String] {
        &self.cmdline
    }

    /// The command line joined with spaces, as `ps -ef` prints it.
    pub fn command_string(&self) -> String {
        self.cmdline.join(" ")
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ProcessState {
        self.state
    }

    /// Returns `true` while the process is running.
    pub fn is_running(&self) -> bool {
        self.state == ProcessState::Running
    }

    /// Kernel tick at which the process was spawned.
    pub fn start_tick(&self) -> u64 {
        self.start_tick
    }

    /// Kernel tick at which the process terminated, if it has.
    pub fn terminate_tick(&self) -> Option<u64> {
        self.terminate_tick
    }

    /// The process's address space.
    pub fn address_space(&self) -> &AddressSpace {
        &self.space
    }

    /// Lowest address of the heap region.
    pub fn heap_base(&self) -> VirtAddr {
        self.space.layout().heap_base()
    }

    /// Current heap break (one past the last heap byte).
    pub fn heap_end(&self) -> VirtAddr {
        self.space.brk()
    }

    pub(crate) fn mark_terminated(&mut self, tick: u64) {
        self.state = ProcessState::Terminated;
        self.terminate_tick = Some(tick);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zynq_mmu::AddressSpaceLayout;

    fn process() -> Process {
        Process::new(
            Pid::new(1391),
            Pid::new(2430),
            UserId::new(0),
            vec!["./resnet50_pt".to_string(), "model.xmodel".to_string()],
            5,
            AddressSpace::new(AddressSpaceLayout::petalinux_default()),
        )
    }

    #[test]
    fn pid_helpers() {
        let pid = Pid::new(1391);
        assert_eq!(pid.as_u32(), 1391);
        assert_eq!(pid.owner_tag().as_u32(), 1391);
        assert_eq!(pid.to_string(), "1391");
        assert_eq!(Pid::from(7u32), Pid::new(7));
        assert_eq!(u32::from(Pid::new(8)), 8);
    }

    #[test]
    fn new_process_is_running_with_expected_metadata() {
        let p = process();
        assert_eq!(p.pid(), Pid::new(1391));
        assert_eq!(p.parent(), Pid::new(2430));
        assert_eq!(p.user(), UserId::new(0));
        assert!(p.is_running());
        assert_eq!(p.state(), ProcessState::Running);
        assert_eq!(p.state().to_string(), "running");
        assert_eq!(p.start_tick(), 5);
        assert!(p.terminate_tick().is_none());
        assert_eq!(p.command_string(), "./resnet50_pt model.xmodel");
        assert_eq!(p.cmdline().len(), 2);
        assert_eq!(p.heap_base(), p.address_space().layout().heap_base());
        assert_eq!(p.heap_end(), p.heap_base());
    }

    #[test]
    fn termination_changes_state_and_records_tick() {
        let mut p = process();
        p.mark_terminated(99);
        assert!(!p.is_running());
        assert_eq!(p.state(), ProcessState::Terminated);
        assert_eq!(p.state().to_string(), "terminated");
        assert_eq!(p.terminate_tick(), Some(99));
    }
}
