//! Set-up and measured passes.
//!
//! Load is one closed-loop client in this process: a real-cell pass runs
//! every cell of the workload once, one after another, in an order fixed by
//! the run's `--seed`; a synthetic pass streams the whole matrix through the
//! campaign engine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use msa_core::attack::AttackConfig;
use msa_core::campaign::{CampaignCell, CampaignSpec, CellRecord, StreamConfig};
use msa_core::profile::{ProfileDatabase, Profiler};
use msa_core::scenario::ScenarioResult;
use msa_core::signature::SignatureDb;
use msa_core::AttackError;
use petalinux_sim::KernelError;

use crate::pins::{record_digest, Pins, SummaryPin};
use crate::trace::{self, Spans};
use crate::workloads::Workload;

/// Set-ups per run; the reported set-up time is their median.
pub const SETUP_REPEATS: usize = 21;

/// Everything a workload needs before its first cell.
pub struct Setup {
    pub spec: CampaignSpec,
    /// One pass of cells in index order (empty for the synthetic stream,
    /// which decodes cells lazily).
    pub cells: Vec<CampaignCell>,
    pub profiles: ProfileDatabase,
    pub signatures: SignatureDb,
    pub base: AttackConfig,
    /// Wall time of each set-up, s.
    pub setup_s: Vec<f64>,
    /// Wall time of each `Profiler::profile_all`, ms.
    pub profile_all_ms: Vec<f64>,
}

impl Setup {
    /// Builds the workload's profiles, signature database and cell list
    /// [`SETUP_REPEATS`] times, timing each, and keeps the last.
    pub fn build(workload: Workload, campaign_seed: u64) -> Setup {
        let mut setup_s = Vec::new();
        let mut profile_all_ms = Vec::new();
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            let started = Instant::now();
            let spec = workload.spec(campaign_seed);
            let (profiles, d) =
                trace::timed(|| Profiler::new(workload.profiling_board()).profile_all());
            let signatures = SignatureDb::standard();
            let cells = if workload.real_cells() {
                spec.expand()
            } else {
                Vec::new()
            };
            setup_s.push(started.elapsed().as_secs_f64());
            profile_all_ms.push(d.as_secs_f64() * 1e3);
            last = Some((spec, cells, profiles, signatures));
        }
        let (spec, cells, profiles, signatures) = last.expect("at least one set-up");
        Setup {
            spec,
            cells,
            profiles,
            signatures,
            base: workload.attack_config(),
            setup_s,
            profile_all_ms,
        }
    }
}

/// The run's pass order: a seeded permutation of the cell indexes.
pub fn pass_order(cells: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cells).collect();
    let mut state = seed;
    for i in (1..order.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        order.swap(i, (z % (i as u64 + 1)) as usize);
    }
    order
}

/// One cell as the campaign engine runs it: boot, launch, attack, score.
/// Returns the record and the `run_attack` time.
///
/// # Errors
///
/// Hard errors only; isolation denials become blocked records.
pub fn run_cell(cell: &CampaignCell, setup: &Setup) -> Result<(CellRecord, Duration), AttackError> {
    let started = Instant::now();
    let scenario = cell.scenario(setup.profiles.clone(), &setup.base);
    let mut attack = Duration::ZERO;
    let outcome = scenario.boot().and_then(|mut booted| {
        let victim = booted.launch_victim()?;
        let (outcome, d) = trace::timed(|| booted.run_attack(victim));
        attack = d;
        outcome
    });
    let (result, outcome) = match outcome {
        Ok(outcome) => (ScenarioResult::Completed, Some(outcome)),
        Err(AttackError::Channel(KernelError::PermissionDenied { operation, .. })) => (
            ScenarioResult::Blocked {
                step: operation.to_string(),
            },
            None,
        ),
        Err(e) => return Err(e),
    };
    let record = CellRecord {
        cell: cell.clone(),
        result,
        metrics: outcome.as_ref().map(|o| o.metrics()),
        timings: outcome.map(|o| o.attack().timings),
        elapsed: started.elapsed(),
    };
    Ok((record, attack))
}

/// Measurements of the untraced real-cell passes of one run.
#[derive(Debug, Default)]
pub struct RealPasses {
    /// Per cell index: cell wall time of every pass, ms.
    pub cell_ms: Vec<Vec<f64>>,
    /// Per cell index: `run_attack` time of every pass, ms.
    pub attack_ms: Vec<Vec<f64>>,
    /// Completed cells per second of each pass.
    pub pass_rates: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The latest pass's records by cell index (`None` where a cell erred).
    pub records: Vec<Option<CellRecord>>,
    pub mismatches: Vec<String>,
}

impl RealPasses {
    /// Empty measurements for `cells` cells.
    pub fn new(cells: usize) -> RealPasses {
        RealPasses {
            cell_ms: vec![Vec::new(); cells],
            attack_ms: vec![Vec::new(); cells],
            records: vec![None; cells],
            ..RealPasses::default()
        }
    }

    /// Runs one untraced pass in `order`, checking every record against
    /// `pins`.
    pub fn pass(&mut self, setup: &Setup, order: &[usize], pins: &Pins) {
        let started = Instant::now();
        for &index in order {
            self.attempted += 1;
            match run_cell(&setup.cells[index], setup) {
                Ok((record, attack)) => {
                    self.cell_ms[index].push(record.elapsed.as_secs_f64() * 1e3);
                    self.attack_ms[index].push(attack.as_secs_f64() * 1e3);
                    if pins.cells.get(index) != Some(&record_digest(&record)) {
                        self.failed += 1;
                        self.mismatches.push(format!(
                            "{}: record differs from its pin",
                            record.cell.label()
                        ));
                    }
                    self.records[index] = Some(record);
                }
                Err(e) => {
                    self.failed += 1;
                    self.mismatches
                        .push(format!("{}: {e}", setup.cells[index].label()));
                    self.records[index] = None;
                }
            }
        }
        self.pass_rates
            .push(order.len() as f64 / started.elapsed().as_secs_f64());
    }

    /// Forgets the timings taken so far (after a warm-up pass), keeping
    /// the counts and records.
    pub fn clear_timings(&mut self) {
        self.cell_ms.iter_mut().for_each(Vec::clear);
        self.attack_ms.iter_mut().for_each(Vec::clear);
        self.pass_rates.clear();
    }

    /// Cells measured.
    pub fn cells(&self) -> usize {
        self.cell_ms.iter().map(Vec::len).sum()
    }

    /// Folds the latest pass through the campaign engine (replaying the
    /// records, one worker) and projects the summary onto its pin.
    pub fn summary(&self, spec: &CampaignSpec) -> Result<SummaryPin, AttackError> {
        let summary = spec.stream_with_executor(
            StreamConfig::new().with_workers(1),
            |cell| {
                self.records[cell.index]
                    .clone()
                    .ok_or(AttackError::EmptyCampaign)
            },
            |_| Ok(()),
            |_| {},
        )?;
        Ok(SummaryPin::of(&summary))
    }
}

/// Measurements of the traced real-cell passes of one run.
#[derive(Debug, Default)]
pub struct TracedPasses {
    pub spans: Spans,
    /// Traced cells per second of each pass (faithfulness checks excluded).
    pub pass_rates: Vec<f64>,
    /// Wall time of the traced cells, s.
    pub traced_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
}

impl TracedPasses {
    /// Runs one traced pass in `order`; `reference` holds the end-to-end
    /// records of the same cells (from an untraced pass of this run).
    pub fn pass(
        &mut self,
        setup: &Setup,
        order: &[usize],
        pins: &Pins,
        reference: &[Option<CellRecord>],
    ) {
        let mut traced = Duration::ZERO;
        for &index in order {
            let cell = &setup.cells[index];
            self.attempted += 1;
            let before = self.mismatches.len();
            let single = cell.schedule == msa_core::scenario::VictimSchedule::Single;
            let replay = if single {
                trace::replay_single(
                    cell,
                    &setup.profiles,
                    &setup.signatures,
                    &setup.base,
                    &mut self.spans,
                )
                .map(|replay| {
                    let metrics = reference[index].as_ref().and_then(|r| r.metrics.as_ref());
                    if !trace::matches_record(&replay, metrics) {
                        self.mismatches.push(format!(
                            "{}: replay differs from the end-to-end record",
                            cell.label()
                        ));
                    }
                    self.mismatches.extend(replay.mismatches);
                    replay.elapsed
                })
            } else {
                trace::replay_schedule(
                    cell,
                    &setup.profiles,
                    &setup.signatures,
                    &setup.base,
                    &mut self.spans,
                )
                .map(|(record, elapsed, probe_mismatches)| {
                    if pins.cells.get(index) != Some(&record_digest(&record)) {
                        self.mismatches.push(format!(
                            "{}: traced record differs from its pin",
                            cell.label()
                        ));
                    }
                    self.mismatches.extend(probe_mismatches);
                    elapsed
                })
            };
            match replay {
                Ok(elapsed) => traced += elapsed,
                Err(e) => self.mismatches.push(format!("{}: {e}", cell.label())),
            }
            if self.mismatches.len() > before {
                self.failed += 1;
            }
        }
        self.traced_s += traced.as_secs_f64();
        self.pass_rates
            .push(order.len() as f64 / traced.as_secs_f64());
    }
}

/// Engine workers of the synthetic stream.  The collector folds on its own
/// thread, so one worker already keeps two threads busy; a second worker
/// oversubscribes a 2-vCPU host, where it measured 5-20% steal and 17%
/// run-to-run spread in throughput (against 8% with one).
pub const STREAM_WORKERS: usize = 1;

/// Measurements of synthetic stream passes.
#[derive(Debug, Default)]
pub struct StreamPasses {
    /// Per block index: worker time per cell of the block in every pass,
    /// ms.
    pub block_cell_ms: Vec<Vec<f64>>,
    /// Per block index: collector time from the previous fold to this
    /// block's fold in every pass, ms.
    pub block_fold_ms: Vec<Vec<f64>>,
    /// Cells per second of each pass.
    pub pass_rates: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub peak_resident_cells: usize,
    /// Worker-µs per 1000 cells not spent in the executor (traced passes).
    pub overhead_us_per_kcell: Vec<f64>,
    pub mismatches: Vec<String>,
    pub last: Option<SummaryPin>,
}

impl StreamPasses {
    /// Streams the matrix once; a traced pass also times every executor
    /// call.
    pub fn pass(&mut self, spec: &CampaignSpec, pins: &Pins, traced: bool) {
        let exec_ns = AtomicU64::new(0);
        let mut fold_ms = Vec::new();
        let started = Instant::now();
        let mut last_fold = started;
        let summary = spec.stream_with_executor(
            StreamConfig::new().with_workers(STREAM_WORKERS),
            |cell| {
                if !traced {
                    return Ok(cell.synthetic_record());
                }
                let (record, d) = trace::timed(|| cell.synthetic_record());
                exec_ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
                Ok(record)
            },
            |_| Ok(()),
            |_| {
                let now = Instant::now();
                fold_ms.push((now - last_fold).as_secs_f64() * 1e3);
                last_fold = now;
            },
        );
        let wall = started.elapsed().as_secs_f64();
        let cells = spec.cell_count();
        self.attempted += cells as u64;
        let summary = match summary {
            Ok(summary) => summary,
            Err(e) => {
                self.failed += cells as u64;
                self.mismatches.push(format!("stream failed: {e}"));
                return;
            }
        };
        self.pass_rates.push(cells as f64 / wall);
        self.peak_resident_cells = self.peak_resident_cells.max(summary.peak_resident_cells);
        if traced {
            let exec_s = exec_ns.load(Ordering::Relaxed) as f64 * 1e-9;
            let overhead_s = wall * summary.workers as f64 - exec_s;
            self.overhead_us_per_kcell
                .push(overhead_s * 1e9 / cells as f64);
        } else {
            self.block_cell_ms
                .resize_with(summary.groups.len(), Vec::new);
            for (samples, group) in self.block_cell_ms.iter_mut().zip(&summary.groups) {
                samples.push(group.wall_clock.as_secs_f64() * 1e3 / group.cells as f64);
            }
            self.block_fold_ms.resize_with(fold_ms.len(), Vec::new);
            for (samples, ms) in self.block_fold_ms.iter_mut().zip(fold_ms) {
                samples.push(ms);
            }
        }
        let pin = SummaryPin::of(&summary);
        if pin != pins.summary {
            self.failed += cells as u64;
            self.mismatches
                .push("stream summary differs from its pin".to_string());
        }
        self.last = Some(pin);
    }

    /// Forgets the timings taken so far (after a warm-up pass), keeping
    /// the counts and the last summary.
    pub fn clear_timings(&mut self) {
        self.block_cell_ms.clear();
        self.block_fold_ms.clear();
        self.pass_rates.clear();
    }
}
