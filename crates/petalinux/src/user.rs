//! Users / tenants of the simulated board.

use std::fmt;

/// A user (tenant) of the board.
///
/// The paper's attack involves two user spaces on one board: the victim runs
/// the ML workload, the attacker runs the debugger and the scraping scripts.
/// User 0 conventionally plays `root`/the first tenant.
///
/// # Example
///
/// ```
/// use petalinux_sim::UserId;
///
/// let victim = UserId::new(0);
/// let attacker = UserId::new(1);
/// assert_ne!(victim, attacker);
/// assert!(victim.is_root());
/// assert_eq!(attacker.to_string(), "uid:1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct UserId(u32);

impl UserId {
    /// Creates a user id from its raw value.
    pub const fn new(raw: u32) -> Self {
        UserId(raw)
    }

    /// Returns the raw user id.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Returns `true` for uid 0.
    pub const fn is_root(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uid:{}", self.0)
    }
}

impl From<u32> for UserId {
    fn from(raw: u32) -> Self {
        UserId(raw)
    }
}

impl From<UserId> for u32 {
    fn from(uid: UserId) -> Self {
        uid.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_detection_and_display() {
        assert!(UserId::new(0).is_root());
        assert!(!UserId::new(1).is_root());
        assert_eq!(UserId::new(7).to_string(), "uid:7");
        assert_eq!(UserId::default(), UserId::new(0));
    }

    #[test]
    fn conversions() {
        assert_eq!(UserId::from(3u32).as_u32(), 3);
        assert_eq!(u32::from(UserId::new(4)), 4);
    }
}
