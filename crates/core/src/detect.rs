//! Detection surface: recognizing a memory scraping attack from the
//! debugger's access pattern.
//!
//! The paper's conclusion places the burden of restricting debugger
//! privileges on the FPGA manufacturer.  Short of restricting them, a board
//! agent can at least *observe* them: the attack has a distinctive shape — a
//! process-list poll, a `maps`/`pagemap` burst against a single pid, then a
//! physical read volume on the order of that process's whole heap, issued by
//! a user who does not own the process.  [`ScrapingDetector`] encodes those
//! heuristics over the [`xsdb::AuditLog`] every debug session accumulates, so
//! the defense discussion can be quantified from the defender's side too.

use petalinux_sim::{Kernel, Pid, UserId};
use xsdb::{AuditLog, DebugOp};

/// Thresholds for flagging a debug session as a scraping attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Minimum number of metadata inspections (`maps`, `pagemap`, translate)
    /// of a single foreign pid before the session is considered *targeting*
    /// that pid.
    pub min_inspections: usize,
    /// Minimum bytes of physical memory read before the session is
    /// considered to be *bulk reading*.
    pub min_physical_bytes: u64,
    /// Whether reads performed by the process owner (or root) are exempt.
    pub exempt_owner: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            min_inspections: 2,
            min_physical_bytes: 64 * 1024,
            exempt_owner: true,
        }
    }
}

/// Severity of a detection finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Unusual but not conclusive (e.g. cross-user metadata reads only).
    Suspicious,
    /// The full scraping signature was observed.
    Critical,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Suspicious => write!(f, "suspicious"),
            Severity::Critical => write!(f, "critical"),
        }
    }
}

/// One detection finding about a debug session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The user driving the session.
    pub user: UserId,
    /// The pid the session focused on, when one could be attributed.
    pub target: Option<Pid>,
    /// How severe the observed behaviour is.
    pub severity: Severity,
    /// Number of metadata inspections of the target.
    pub inspections: usize,
    /// Bytes of physical memory read by the session.
    pub physical_bytes: u64,
    /// Human-readable explanation.
    pub reason: String,
}

/// Analyses debugger audit logs for the memory-scraping signature.
///
/// # Example
///
/// ```
/// use msa_core::detect::{DetectorConfig, ScrapingDetector};
///
/// let detector = ScrapingDetector::new(DetectorConfig::default());
/// assert_eq!(detector.config().min_inspections, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScrapingDetector {
    config: DetectorConfig,
}

impl ScrapingDetector {
    /// Creates a detector with the given thresholds.
    pub fn new(config: DetectorConfig) -> Self {
        ScrapingDetector { config }
    }

    /// The thresholds in use.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Inspects one session's audit log.
    ///
    /// `user` is the user the session belongs to; `kernel` supplies process
    /// ownership so owner/root activity can be exempted.  Returns `None` when
    /// the activity looks benign.
    pub fn inspect(&self, kernel: &Kernel, user: UserId, log: &AuditLog) -> Option<Finding> {
        // Attribute the session to the foreign pid it inspected the most.
        let mut per_pid: std::collections::BTreeMap<Pid, usize> = std::collections::BTreeMap::new();
        for record in log.records() {
            let pid = match record.op {
                DebugOp::ReadMaps { pid }
                | DebugOp::ReadPagemap { pid, .. }
                | DebugOp::Translate { pid } => pid,
                _ => continue,
            };
            if self.config.exempt_owner {
                if user.is_root() {
                    continue;
                }
                if let Ok(process) = kernel.process(pid) {
                    if process.user() == user {
                        continue;
                    }
                }
            }
            *per_pid.entry(pid).or_default() += 1;
        }
        let physical_bytes = log.physical_bytes_read();
        let (target, inspections) = per_pid
            .into_iter()
            .max_by_key(|(_, count)| *count)
            .map(|(pid, count)| (Some(pid), count))
            .unwrap_or((None, 0));

        let targeting = inspections >= self.config.min_inspections;
        let bulk_reading = physical_bytes >= self.config.min_physical_bytes;

        match (targeting, bulk_reading) {
            (true, true) => Some(Finding {
                user,
                target,
                severity: Severity::Critical,
                inspections,
                physical_bytes,
                reason: format!(
                    "cross-user address-space inspection ({inspections} ops) followed by a bulk \
                     physical read of {physical_bytes} bytes"
                ),
            }),
            (true, false) => Some(Finding {
                user,
                target,
                severity: Severity::Suspicious,
                inspections,
                physical_bytes,
                reason: format!(
                    "cross-user address-space inspection ({inspections} ops) without bulk reads yet"
                ),
            }),
            (false, true) => Some(Finding {
                user,
                target,
                severity: Severity::Suspicious,
                inspections,
                physical_bytes,
                reason: format!(
                    "bulk physical read of {physical_bytes} bytes without attributable inspection"
                ),
            }),
            (false, false) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use petalinux_sim::{BoardConfig, Kernel};
    use vitis_ai_sim::{DpuRunner, Image, ModelKind};
    use xsdb::DebugSession;

    use crate::attack::{AttackConfig, AttackPipeline};

    fn detector() -> ScrapingDetector {
        ScrapingDetector::new(DetectorConfig::default())
    }

    #[test]
    fn real_attack_session_is_flagged_critical() {
        let mut kernel = Kernel::boot(BoardConfig::tiny_for_tests());
        let victim = DpuRunner::new(ModelKind::Resnet50Pt)
            .with_input(Image::corrupted(224, 224))
            .launch(&mut kernel, UserId::new(0))
            .unwrap();
        let pipeline = AttackPipeline::new(AttackConfig::default());
        let mut debugger = DebugSession::connect(UserId::new(1));
        let observation = pipeline.poll_and_observe(&mut debugger, &kernel).unwrap();
        let victim_pid = victim.pid();
        victim.terminate(&mut kernel).unwrap();
        pipeline
            .execute(&mut debugger, &kernel, &observation)
            .unwrap();

        let finding = detector()
            .inspect(&kernel, debugger.user(), debugger.audit())
            .expect("attack should be detected");
        assert_eq!(finding.severity, Severity::Critical);
        assert_eq!(finding.target, Some(victim_pid));
        assert!(finding.inspections >= 2);
        assert!(finding.physical_bytes >= 64 * 1024);
        assert!(finding.reason.contains("bulk"));
    }

    #[test]
    fn owner_debugging_their_own_process_is_not_flagged() {
        let mut kernel = Kernel::boot(BoardConfig::tiny_for_tests());
        let run = DpuRunner::new(ModelKind::SqueezeNet)
            .launch(&mut kernel, UserId::new(3))
            .unwrap();
        // The process owner uses the debugger heavily on their own process.
        let mut debugger = DebugSession::connect(UserId::new(3));
        let heap = kernel.process(run.pid()).unwrap().heap_base();
        for _ in 0..5 {
            debugger.read_maps(&kernel, run.pid()).unwrap();
            debugger.read_pagemap(&kernel, run.pid(), heap, 8).unwrap();
        }
        assert!(detector()
            .inspect(&kernel, debugger.user(), debugger.audit())
            .is_none());
    }

    #[test]
    fn metadata_only_snooping_is_suspicious_not_critical() {
        let mut kernel = Kernel::boot(BoardConfig::tiny_for_tests());
        let run = DpuRunner::new(ModelKind::SqueezeNet)
            .launch(&mut kernel, UserId::new(0))
            .unwrap();
        let mut debugger = DebugSession::connect(UserId::new(1));
        debugger.read_maps(&kernel, run.pid()).unwrap();
        debugger.read_maps(&kernel, run.pid()).unwrap();
        let finding = detector()
            .inspect(&kernel, debugger.user(), debugger.audit())
            .expect("snooping noticed");
        assert_eq!(finding.severity, Severity::Suspicious);
        assert_eq!(finding.target, Some(run.pid()));
    }

    #[test]
    fn bulk_read_without_inspection_is_suspicious() {
        let mut kernel = Kernel::boot(BoardConfig::tiny_for_tests());
        DpuRunner::new(ModelKind::SqueezeNet)
            .run_to_completion(&mut kernel, UserId::new(0))
            .unwrap();
        let mut debugger = DebugSession::connect(UserId::new(1));
        let base = kernel.config().dram().base();
        debugger.read_phys_range(&kernel, base, 128 * 1024).unwrap();
        let finding = detector()
            .inspect(&kernel, debugger.user(), debugger.audit())
            .expect("bulk read noticed");
        assert_eq!(finding.severity, Severity::Suspicious);
        assert_eq!(finding.target, None);
    }

    #[test]
    fn quiet_sessions_produce_no_finding() {
        let mut kernel = Kernel::boot(BoardConfig::tiny_for_tests());
        kernel.spawn(UserId::new(0), &["sh"]).unwrap();
        let mut debugger = DebugSession::connect(UserId::new(1));
        debugger.list_processes(&kernel);
        assert!(detector()
            .inspect(&kernel, debugger.user(), debugger.audit())
            .is_none());
    }

    #[test]
    fn root_is_exempt_by_default_but_not_when_configured() {
        let mut kernel = Kernel::boot(BoardConfig::tiny_for_tests());
        let run = DpuRunner::new(ModelKind::SqueezeNet)
            .launch(&mut kernel, UserId::new(3))
            .unwrap();
        let mut debugger = DebugSession::connect(UserId::new(0));
        debugger.read_maps(&kernel, run.pid()).unwrap();
        debugger.read_maps(&kernel, run.pid()).unwrap();
        assert!(detector()
            .inspect(&kernel, debugger.user(), debugger.audit())
            .is_none());

        let strict = ScrapingDetector::new(DetectorConfig {
            exempt_owner: false,
            ..DetectorConfig::default()
        });
        let finding = strict
            .inspect(&kernel, debugger.user(), debugger.audit())
            .expect("strict mode flags root too");
        assert_eq!(finding.severity, Severity::Suspicious);
    }

    #[test]
    fn severity_ordering_and_display() {
        assert!(Severity::Suspicious < Severity::Critical);
        assert_eq!(Severity::Suspicious.to_string(), "suspicious");
        assert_eq!(Severity::Critical.to_string(), "critical");
        assert_eq!(DetectorConfig::default().min_inspections, 2);
        assert_eq!(
            ScrapingDetector::default().config(),
            &DetectorConfig::default()
        );
    }
}
