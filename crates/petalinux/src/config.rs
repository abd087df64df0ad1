//! Board and security-policy configuration.

use zynq_dram::{DramConfig, RemanenceModel, SanitizeCost, SanitizePolicy};
use zynq_mmu::{AllocationOrder, AslrMode};

/// Whether the board confines debugger-style access to a user's own
/// processes.
///
/// The paper's core observation is that the Xilinx tooling on PetaLinux is
/// *not* confined: a second user space can list any process, read any
/// process's `maps`/`pagemap`, and read physical memory with `devmem`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[derive(Default)]
pub enum IsolationPolicy {
    /// The vulnerable PetaLinux default: any user may inspect any process and
    /// read physical memory.
    #[default]
    Permissive,
    /// A hardened configuration: proc files are only readable by the owning
    /// user (or root) and `devmem` is root-only.
    Confined,
}

impl IsolationPolicy {
    /// Returns `true` if `accessor` may read process metadata (`maps`,
    /// `pagemap`) belonging to `owner`.
    pub fn allows_proc_access(self, accessor: crate::UserId, owner: crate::UserId) -> bool {
        match self {
            IsolationPolicy::Permissive => true,
            IsolationPolicy::Confined => accessor.is_root() || accessor == owner,
        }
    }

    /// Returns `true` if `accessor` may read raw physical memory (`devmem`).
    pub fn allows_devmem(self, accessor: crate::UserId) -> bool {
        match self {
            IsolationPolicy::Permissive => true,
            IsolationPolicy::Confined => accessor.is_root(),
        }
    }
}

impl std::fmt::Display for IsolationPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsolationPolicy::Permissive => write!(f, "permissive"),
            IsolationPolicy::Confined => write!(f, "confined"),
        }
    }
}

/// Full configuration of a simulated board.
///
/// The presets reproduce the paper's two targets; builder-style setters
/// toggle the security knobs the defense experiments sweep.
///
/// # Example
///
/// ```
/// use petalinux_sim::BoardConfig;
/// use zynq_dram::SanitizePolicy;
///
/// let hardened = BoardConfig::zcu104()
///     .with_sanitize_policy(SanitizePolicy::SelectiveScrub);
/// assert_eq!(hardened.sanitize_policy(), SanitizePolicy::SelectiveScrub);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoardConfig {
    dram: DramConfig,
    sanitize: SanitizePolicy,
    sanitize_cost: SanitizeCost,
    isolation: IsolationPolicy,
    allocation_order: AllocationOrder,
    aslr: AslrMode,
    remanence: RemanenceModel,
    swap_pressure: u8,
    hostname: &'static str,
}

impl BoardConfig {
    /// The ZCU104 running the stock PetaLinux image: no sanitization,
    /// permissive isolation, deterministic layout (the paper's target).
    pub fn zcu104() -> Self {
        BoardConfig {
            dram: DramConfig::zcu104(),
            sanitize: SanitizePolicy::None,
            sanitize_cost: SanitizeCost::default(),
            isolation: IsolationPolicy::Permissive,
            allocation_order: AllocationOrder::Sequential,
            aslr: AslrMode::Disabled,
            remanence: RemanenceModel::Perfect,
            swap_pressure: 0,
            hostname: "xilinx-zcu104-20222",
        }
    }

    /// The ZCU102 with the same stock configuration (the paper's
    /// generalizability target).
    pub fn zcu102() -> Self {
        BoardConfig {
            dram: DramConfig::zcu102(),
            hostname: "xilinx-zcu102-20222",
            ..BoardConfig::zcu104()
        }
    }

    /// A small-memory configuration for fast tests.
    pub fn tiny_for_tests() -> Self {
        BoardConfig {
            dram: DramConfig::tiny_for_tests(),
            ..BoardConfig::zcu104()
        }
    }

    /// Sets the end-of-process sanitization policy.
    pub fn with_sanitize_policy(mut self, policy: SanitizePolicy) -> Self {
        self.sanitize = policy;
        self
    }

    /// Sets the sanitization cost model.
    pub fn with_sanitize_cost(mut self, cost: SanitizeCost) -> Self {
        self.sanitize_cost = cost;
        self
    }

    /// Sets the debugger/proc isolation policy.
    pub fn with_isolation(mut self, isolation: IsolationPolicy) -> Self {
        self.isolation = isolation;
        self
    }

    /// Sets the physical frame allocation order.
    pub fn with_allocation_order(mut self, order: AllocationOrder) -> Self {
        self.allocation_order = order;
        self
    }

    /// Sets the virtual address-space randomization mode.
    pub fn with_aslr(mut self, aslr: AslrMode) -> Self {
        self.aslr = aslr;
        self
    }

    /// Sets the DRAM remanence decay model (default
    /// [`RemanenceModel::Perfect`], the all-or-nothing residue every earlier
    /// experiment ran on).
    pub fn with_remanence(mut self, remanence: RemanenceModel) -> Self {
        self.remanence = remanence;
        self
    }

    /// Sets the memory-pressure knob: the percentage (clamped to `0..=100`)
    /// of a victim's heap pages the kernel swaps out — compressed, zram-style
    /// — before termination. `0` (the default) disables the swap store.
    ///
    /// Swapped pages are a second residue substrate: frame-oriented sanitize
    /// policies never touch the compressed slots, so their plaintext survives
    /// even a zero-on-free scrub of DRAM.
    pub fn with_swap(mut self, pressure: u8) -> Self {
        self.swap_pressure = pressure.min(100);
        self
    }

    /// The DRAM window configuration.
    pub fn dram(&self) -> DramConfig {
        self.dram
    }

    /// The end-of-process sanitization policy.
    pub fn sanitize_policy(&self) -> SanitizePolicy {
        self.sanitize
    }

    /// The sanitization cost model.
    pub fn sanitize_cost(&self) -> SanitizeCost {
        self.sanitize_cost
    }

    /// The debugger/proc isolation policy.
    pub fn isolation(&self) -> IsolationPolicy {
        self.isolation
    }

    /// The physical frame allocation order.
    pub fn allocation_order(&self) -> AllocationOrder {
        self.allocation_order
    }

    /// The virtual address-space randomization mode.
    pub fn aslr(&self) -> AslrMode {
        self.aslr
    }

    /// The DRAM remanence decay model.
    pub fn remanence(&self) -> RemanenceModel {
        self.remanence
    }

    /// The swap memory-pressure knob: percentage of a victim's heap pages
    /// swapped out before termination (`0` = swap disabled).
    pub fn swap_pressure(&self) -> u8 {
        self.swap_pressure
    }

    /// The shell prompt hostname (cosmetic, used in rendered figures).
    pub fn hostname(&self) -> &'static str {
        self.hostname
    }
}

impl Default for BoardConfig {
    fn default() -> Self {
        BoardConfig::zcu104()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UserId;

    #[test]
    fn zcu104_default_is_the_vulnerable_configuration() {
        let cfg = BoardConfig::zcu104();
        assert_eq!(cfg.sanitize_policy(), SanitizePolicy::None);
        assert_eq!(cfg.isolation(), IsolationPolicy::Permissive);
        assert_eq!(cfg.allocation_order(), AllocationOrder::Sequential);
        assert_eq!(cfg.aslr(), AslrMode::Disabled);
        assert_eq!(cfg.remanence(), RemanenceModel::Perfect);
        assert_eq!(cfg.hostname(), "xilinx-zcu104-20222");
        assert_eq!(BoardConfig::default(), cfg);
    }

    #[test]
    fn zcu102_differs_only_in_dram_and_hostname() {
        let a = BoardConfig::zcu104();
        let b = BoardConfig::zcu102();
        assert_ne!(a.dram(), b.dram());
        assert_ne!(a.hostname(), b.hostname());
        assert_eq!(a.sanitize_policy(), b.sanitize_policy());
    }

    #[test]
    fn builders_set_each_knob() {
        let cfg = BoardConfig::tiny_for_tests()
            .with_sanitize_policy(SanitizePolicy::ZeroOnFree)
            .with_isolation(IsolationPolicy::Confined)
            .with_allocation_order(AllocationOrder::Randomized { seed: 3 })
            .with_aslr(AslrMode::Virtual { seed: 5 })
            .with_remanence(RemanenceModel::Exponential { half_life_ticks: 8 })
            .with_sanitize_cost(SanitizeCost::default())
            .with_swap(25);
        assert_eq!(cfg.sanitize_policy(), SanitizePolicy::ZeroOnFree);
        assert_eq!(cfg.isolation(), IsolationPolicy::Confined);
        assert_eq!(
            cfg.allocation_order(),
            AllocationOrder::Randomized { seed: 3 }
        );
        assert_eq!(cfg.aslr(), AslrMode::Virtual { seed: 5 });
        assert_eq!(
            cfg.remanence(),
            RemanenceModel::Exponential { half_life_ticks: 8 }
        );
        assert_eq!(cfg.swap_pressure(), 25);
        // Values above 100% clamp; the default stays off.
        assert_eq!(cfg.with_swap(250).swap_pressure(), 100);
        assert_eq!(BoardConfig::zcu104().swap_pressure(), 0);
    }

    #[test]
    fn permissive_isolation_allows_cross_user_access() {
        let policy = IsolationPolicy::Permissive;
        assert!(policy.allows_proc_access(UserId::new(1), UserId::new(0)));
        assert!(policy.allows_devmem(UserId::new(1)));
        assert_eq!(policy.to_string(), "permissive");
        assert_eq!(IsolationPolicy::default(), policy);
    }

    #[test]
    fn confined_isolation_blocks_cross_user_access() {
        let policy = IsolationPolicy::Confined;
        assert!(!policy.allows_proc_access(UserId::new(1), UserId::new(0)));
        assert!(policy.allows_proc_access(UserId::new(1), UserId::new(1)));
        assert!(policy.allows_proc_access(UserId::new(0), UserId::new(1)));
        assert!(!policy.allows_devmem(UserId::new(1)));
        assert!(policy.allows_devmem(UserId::new(0)));
        assert_eq!(policy.to_string(), "confined");
    }
}
