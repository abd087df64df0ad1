//! The four workloads: fixed campaign matrices over the repository's public
//! campaign API.  Axes never depend on the run's `--seed`; only the campaign
//! seed (a separate argument, pinned by default) feeds the cells.

use msa_core::attack::{AttackConfig, ScrapeMode};
use msa_core::campaign::{CampaignSpec, InputKind};
use msa_core::scenario::VictimSchedule;
use petalinux_sim::{BoardConfig, IsolationPolicy};
use vitis_ai_sim::ModelKind;
use zynq_dram::{RemanenceModel, SanitizePolicy};

/// Campaign seed every workload runs under unless `--campaign-seed` says
/// otherwise (the seed the `experiments` campaigns use).
pub const DEFAULT_CAMPAIGN_SEED: u64 = 2024;

/// Boards in the synthetic fleet (as in `experiments --campaign --stress`).
const FLEET_BOARDS: usize = 125;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's attack as users run it: identify-bound.
    ZooAttack,
    /// Decayed multi-snapshot reads with reconstruction.
    DecayReconstruct,
    /// Victim lifecycles with sanitizers, swap, revival, forks and churn.
    LifecycleChurn,
    /// The million-cell synthetic stream: campaign-engine bound.
    StreamSynthetic,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ZooAttack,
        Workload::DecayReconstruct,
        Workload::LifecycleChurn,
        Workload::StreamSynthetic,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ZooAttack => "zoo-attack",
            Workload::DecayReconstruct => "decay-reconstruct",
            Workload::LifecycleChurn => "lifecycle-churn",
            Workload::StreamSynthetic => "stream-synthetic",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether cells run the real scenario pipeline (as opposed to the
    /// synthetic executor).
    pub fn real_cells(self) -> bool {
        self != Workload::StreamSynthetic
    }

    /// The board whose profiles the set-up builds.  Real-cell workloads have
    /// one board; the synthetic fleet shares one preset.
    pub fn profiling_board(self) -> BoardConfig {
        match self {
            Workload::ZooAttack | Workload::DecayReconstruct => BoardConfig::zcu104(),
            Workload::LifecycleChurn => lifecycle_board(),
            Workload::StreamSynthetic => BoardConfig::tiny_for_tests(),
        }
        .with_isolation(IsolationPolicy::Permissive)
    }

    /// The base attack configuration of every cell (reconstruction is on
    /// only for the decay workload).
    pub fn attack_config(self) -> AttackConfig {
        AttackConfig {
            reconstruct: self == Workload::DecayReconstruct,
            ..AttackConfig::default()
        }
    }

    /// The workload's campaign matrix under `seed`.
    pub fn spec(self, seed: u64) -> CampaignSpec {
        let all_models = ModelKind::all().to_vec();
        match self {
            Workload::ZooAttack => CampaignSpec::new("ZCU104", BoardConfig::zcu104())
                .with_models(all_models)
                .with_inputs(vec![InputKind::Corrupted, InputKind::SamplePhoto])
                .with_scrape_modes(vec![ScrapeMode::ContiguousRange, ScrapeMode::PerPage]),
            Workload::DecayReconstruct => CampaignSpec::new("ZCU104", BoardConfig::zcu104())
                .with_models(all_models)
                .with_inputs(vec![InputKind::Corrupted])
                .with_remanence_models(vec![
                    RemanenceModel::Exponential { half_life_ticks: 4 },
                    RemanenceModel::BitFlip { rate_ppm: 120_000 },
                ])
                .with_scrape_modes(vec![ScrapeMode::MultiSnapshot { snapshots: 3 }])
                .with_attack_config(self.attack_config()),
            Workload::LifecycleChurn => CampaignSpec::new("ZCU104-swap50", lifecycle_board())
                .with_models(vec![ModelKind::SqueezeNet, ModelKind::MobileNetV2])
                .with_inputs(vec![InputKind::Corrupted])
                .with_sanitize_policies(vec![
                    SanitizePolicy::None,
                    SanitizePolicy::ZeroOnFree,
                    SanitizePolicy::ZeroOnFreeSwap,
                ])
                .with_schedules(vec![
                    VictimSchedule::SequentialTraffic { predecessors: 32 },
                    VictimSchedule::Revival {
                        successors: 12,
                        reuse_pid: true,
                    },
                    VictimSchedule::ForkHeavy { children: 8 },
                    VictimSchedule::LiveTraffic {
                        tenants: 8,
                        churn_rate: 4,
                    },
                ]),
            Workload::StreamSynthetic => stress_spec(),
        }
        .with_seed(seed)
    }
}

/// The lifecycle workload's board: the ZCU104 under swap pressure 50.
fn lifecycle_board() -> BoardConfig {
    BoardConfig::zcu104().with_swap(50)
}

/// The 1,000,000-cell matrix of `experiments --campaign --stress`.
fn stress_spec() -> CampaignSpec {
    let boards = (0..FLEET_BOARDS)
        .map(|i| (format!("fleet-{i:03}"), BoardConfig::tiny_for_tests()))
        .collect();
    CampaignSpec::over_boards(boards)
        .with_models(ModelKind::all().to_vec())
        .with_inputs(vec![InputKind::SamplePhoto, InputKind::Corrupted])
        .with_sanitize_policies(vec![
            SanitizePolicy::None,
            SanitizePolicy::ZeroOnFree,
            SanitizePolicy::RowClone,
            SanitizePolicy::SelectiveScrub,
            SanitizePolicy::Background { delay_ticks: 1000 },
        ])
        .with_isolation_policies(vec![IsolationPolicy::Permissive, IsolationPolicy::Confined])
        .with_scrape_modes(vec![ScrapeMode::ContiguousRange, ScrapeMode::PerPage])
        .with_remanence_models(vec![
            RemanenceModel::Perfect,
            RemanenceModel::Exponential {
                half_life_ticks: 100,
            },
            RemanenceModel::Exponential {
                half_life_ticks: 10_000,
            },
            RemanenceModel::BitFlip { rate_ppm: 50 },
            RemanenceModel::BitFlip { rate_ppm: 5_000 },
        ])
        .with_schedules(vec![
            VictimSchedule::Single,
            VictimSchedule::SequentialTraffic { predecessors: 2 },
            VictimSchedule::Revival {
                successors: 1,
                reuse_pid: true,
            },
            VictimSchedule::Revival {
                successors: 2,
                reuse_pid: false,
            },
            VictimSchedule::LiveTraffic {
                tenants: 2,
                churn_rate: 1,
            },
        ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrices_have_the_documented_sizes() {
        let sizes: Vec<usize> = Workload::ALL
            .iter()
            .map(|w| w.spec(DEFAULT_CAMPAIGN_SEED).cell_count())
            .collect();
        assert_eq!(sizes, vec![32, 16, 24, 1_000_000]);
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
