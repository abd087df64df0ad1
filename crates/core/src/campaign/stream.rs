//! The streaming campaign engine.
//!
//! [`super::CampaignSpec::expand`] materializes a matrix; this module runs
//! one without ever holding it.  Cells are generated lazily
//! ([`super::CampaignSpec::cell_at`]) in fixed-size **blocks**, executed by
//! a pool of claim-on-demand workers, and folded into running aggregates by
//! a single collector that consumes blocks in strict block-index order — a
//! reorder buffer decouples completion order from fold order, so the
//! deterministic surface of a [`CampaignSummary`] is byte-identical
//! regardless of worker count or scheduling.
//!
//! Memory is bounded by the in-flight window, not the matrix: a worker may
//! not claim a new block while `workers + 2` completed blocks await folding
//! (backpressure), so peak resident cells is O(workers) · block size — a
//! 1,000,000-cell campaign streams through a few thousand resident cells.
//!
//! [`super::CampaignSpec::stream`] runs the real scenario pipeline through
//! this engine; [`super::CampaignSpec::stream_with_executor`] runs a
//! caller-supplied executor (the synthetic suites and the benchmark).
//!
//! For tests, [`Adversary`] deliberately withholds completed blocks and
//! releases them in reverse or shuffled order, proving the reorder buffer
//! (not scheduling luck) is what makes results order-independent.

// Lint audit: address arithmetic here is bounds-checked against the
// DRAM window before any narrowing cast or direct index; offsets are
// derived from validated window-relative coordinates.
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::error::AttackError;
use crate::report::{json_array, JsonObject};
use crate::scenario::splitmix64;

use super::{CampaignCell, CampaignSpec, CellRecord, GroupStats};

/// Execution knobs of the streaming engine — all optional; the defaults
/// resolve from the machine (worker count) and the matrix size (block
/// size).
#[derive(Debug, Clone, Default)]
pub struct StreamConfig {
    workers: Option<usize>,
    block_size: Option<usize>,
    adversary: Option<Adversary>,
}

impl StreamConfig {
    /// Starts from the all-default configuration.
    pub fn new() -> Self {
        StreamConfig::default()
    }

    /// Pins the worker count (otherwise the machine's available
    /// parallelism).  It is the engine's only worker-count knob.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Pins the cells-per-block claim granularity.
    ///
    /// The default is derived from the matrix size alone (never from the
    /// worker count), so progress output is identical across `--jobs`
    /// settings.
    pub fn with_block_size(mut self, cells: usize) -> Self {
        self.block_size = Some(cells.max(1));
        self
    }

    /// Installs an adversarial completion-order scheduler (test hook).
    ///
    /// Backpressure is disabled under an adversary — every block is held
    /// back until the pool drains, so resident cells grow to the full
    /// matrix.  Strictly for determinism tests on small matrices.
    pub fn with_adversary(mut self, adversary: Adversary) -> Self {
        self.adversary = Some(adversary);
        self
    }
}

/// Adversarial completion-order schedules for the determinism suite: blocks
/// are executed normally but withheld from the collector until the whole
/// pool drains, then released in a hostile order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adversary {
    /// Releases completed blocks in reverse completion order (the collector
    /// sees the last block first).
    ReverseCompletion,
    /// Releases completed blocks in a seed-determined shuffled order.
    ShuffledCompletion {
        /// Seed of the release-order shuffle.
        seed: u64,
    },
}

/// Progress snapshot handed to the progress hook after each folded cell
/// group (block), in group order.
///
/// Everything except `resident_cells` and `elapsed` is deterministic for a
/// fixed spec; those two are scheduling/wall-clock artifacts and are masked
/// by the golden tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupProgress {
    /// Index of the group (block) just folded.
    pub block: usize,
    /// Cell index of the group's first cell.
    pub first_cell: usize,
    /// Cells in this group.
    pub cells: usize,
    /// Cells folded so far, this group included.
    pub folded_cells: usize,
    /// Total cells in the campaign.
    pub cells_total: usize,
    /// Completed cells so far.
    pub completed: usize,
    /// Blocked cells so far.
    pub blocked: usize,
    /// Cells that identified the victim model so far.
    pub identified: usize,
    /// Running mean pixel recovery over completed cells.
    pub mean_pixel_recovery: f64,
    /// Cells currently resident (claimed or awaiting fold).
    pub resident_cells: usize,
    /// Wall clock since the stream started.
    pub elapsed: Duration,
}

impl GroupProgress {
    /// Renders the snapshot as one NDJSON line (no trailing newline) — the
    /// `experiments --campaign --stream` progress format.
    pub fn to_ndjson(&self) -> String {
        JsonObject::new()
            .str("event", "group")
            .u64("block", self.block as u64)
            .u64("first_cell", self.first_cell as u64)
            .u64("cells", self.cells as u64)
            .u64("folded_cells", self.folded_cells as u64)
            .u64("cells_total", self.cells_total as u64)
            .u64("completed", self.completed as u64)
            .u64("blocked", self.blocked as u64)
            .u64("identified", self.identified as u64)
            .f64("mean_pixel_recovery", self.mean_pixel_recovery)
            .u64("resident_cells", self.resident_cells as u64)
            .u64("elapsed_ms", self.elapsed.as_millis() as u64)
            .finish()
    }
}

/// Record of one folded cell group: where it sits in the matrix and the wall
/// clock its worker spent on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupSummary {
    /// Group (block) index.
    pub block: usize,
    /// Cell index of the group's first cell.
    pub first_cell: usize,
    /// Cells in the group.
    pub cells: usize,
    /// Wall clock the executing worker spent on the group.
    pub wall_clock: Duration,
}

impl GroupSummary {
    fn to_json(self) -> String {
        JsonObject::new()
            .u64("block", self.block as u64)
            .u64("first_cell", self.first_cell as u64)
            .u64("cells", self.cells as u64)
            .finish()
    }
}

/// Per-axis aggregates of a streamed campaign, keyed by each axis value's
/// display form (boards by their axis name — two boards sharing a name fold
/// into one group).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AxisGroups {
    /// Aggregates keyed by board name.
    pub by_board: BTreeMap<String, GroupStats>,
    /// Aggregates keyed by victim model.
    pub by_model: BTreeMap<String, GroupStats>,
    /// Aggregates keyed by input kind.
    pub by_input: BTreeMap<String, GroupStats>,
    /// Aggregates keyed by effective sanitize policy.
    pub by_sanitize: BTreeMap<String, GroupStats>,
    /// Aggregates keyed by effective isolation policy.
    pub by_isolation: BTreeMap<String, GroupStats>,
    /// Aggregates keyed by victim schedule.
    pub by_schedule: BTreeMap<String, GroupStats>,
}

fn groups_json(map: &BTreeMap<String, GroupStats>) -> String {
    let mut obj = JsonObject::new();
    for (key, stats) in map {
        obj = obj.raw(key, &group_stats_json(stats));
    }
    obj.finish()
}

fn group_stats_json(stats: &GroupStats) -> String {
    JsonObject::new()
        .u64("cells", stats.cells as u64)
        .u64("completed", stats.completed as u64)
        .u64("blocked", stats.blocked as u64)
        .u64("identified", stats.identified as u64)
        .f64("mean_pixel_recovery", stats.mean_pixel_recovery)
        .f64("pixel_recovery_m2", stats.pixel_recovery_m2)
        .u64("residue_frames", stats.residue_frames as u64)
        .u64("residue_frames_lost", stats.residue_frames_lost as u64)
        .u64(
            "revival_inherited_frames",
            stats.revival_inherited_frames as u64,
        )
        .u64("revival_cells", stats.revival_cells as u64)
        .f64("mean_revival_inheritance", stats.mean_revival_inheritance)
        .u64("residue_bits_flipped", stats.residue_bits_flipped)
        .f64("mean_decayed_recovery", stats.mean_decayed_recovery)
        .finish()
}

impl AxisGroups {
    fn absorb(&mut self, record: &CellRecord) {
        let cell = &record.cell;
        self.by_board
            .entry(cell.board_name.clone())
            .or_default()
            .absorb(record);
        self.by_model
            .entry(cell.model.to_string())
            .or_default()
            .absorb(record);
        self.by_input
            .entry(cell.input.to_string())
            .or_default()
            .absorb(record);
        self.by_sanitize
            .entry(cell.sanitize.to_string())
            .or_default()
            .absorb(record);
        self.by_isolation
            .entry(cell.isolation.to_string())
            .or_default()
            .absorb(record);
        self.by_schedule
            .entry(cell.schedule.to_string())
            .or_default()
            .absorb(record);
    }

    fn to_json(&self) -> String {
        JsonObject::new()
            .raw("board", &groups_json(&self.by_board))
            .raw("model", &groups_json(&self.by_model))
            .raw("input", &groups_json(&self.by_input))
            .raw("sanitize", &groups_json(&self.by_sanitize))
            .raw("isolation", &groups_json(&self.by_isolation))
            .raw("schedule", &groups_json(&self.by_schedule))
            .finish()
    }
}

/// The incremental fold the streaming collector applies cell by cell —
/// campaign totals plus per-axis groups, always in final (no separate
/// finalization) form.
///
/// The engine folds in strict cell-index order for bit-identical results,
/// so a serial fold of the same records reproduces its summary exactly.
#[derive(Debug, Clone, Default)]
pub struct CampaignAccumulator {
    totals: GroupStats,
    axes: AxisGroups,
}

impl CampaignAccumulator {
    /// Starts an empty fold.
    pub fn new() -> Self {
        CampaignAccumulator::default()
    }

    /// Folds one cell record into the totals and every axis group.
    pub fn absorb(&mut self, record: &CellRecord) {
        self.totals.absorb(record);
        self.axes.absorb(record);
    }

    /// Campaign-wide totals folded so far.
    pub fn totals(&self) -> &GroupStats {
        &self.totals
    }

    /// Per-axis groups folded so far.
    pub fn axes(&self) -> &AxisGroups {
        &self.axes
    }

    pub(crate) fn into_summary(
        self,
        workers: usize,
        block_size: usize,
        peak_resident_cells: usize,
        groups: Vec<GroupSummary>,
    ) -> CampaignSummary {
        CampaignSummary {
            cells_total: self.totals.cells,
            totals: self.totals,
            axes: self.axes,
            workers,
            block_size,
            peak_resident_cells,
            groups,
        }
    }
}

/// The result of a streamed campaign: deterministic aggregates (totals +
/// per-axis groups) plus the run's scheduling shape (workers, blocks,
/// residency).
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// Total cells the campaign folded.
    pub cells_total: usize,
    /// Campaign-wide aggregates.
    pub totals: GroupStats,
    /// Per-axis aggregates.
    pub axes: AxisGroups,
    /// Worker threads the run used (after clamping to the matrix size).
    pub workers: usize,
    /// Cells per claim block.
    pub block_size: usize,
    /// Peak cells simultaneously resident (claimed or awaiting fold).
    pub peak_resident_cells: usize,
    /// Per-group records, in group order.
    pub groups: Vec<GroupSummary>,
}

impl CampaignSummary {
    /// The deterministic comparison surface: totals and per-axis groups as
    /// canonical JSON, excluding every scheduling/wall-clock artifact
    /// (workers, block size, residency, durations).
    ///
    /// Two runs of one spec must produce byte-identical strings here,
    /// whatever the worker count or completion order — the determinism
    /// suite compares these directly.
    pub fn deterministic_json(&self) -> String {
        JsonObject::new()
            .u64("cells_total", self.cells_total as u64)
            .raw("totals", &group_stats_json(&self.totals))
            .raw("axes", &self.axes.to_json())
            .finish()
    }

    /// Renders the `BENCH_campaign.json` document: the deterministic
    /// headline counts plus the run's scheduling shape — workers, block
    /// structure and peak residency.  It carries no timings.
    pub fn bench_json(&self, name: &str) -> String {
        JsonObject::new()
            .str("schema", "msa-bench-campaign-v1")
            .str("campaign", name)
            .u64("cells_total", self.cells_total as u64)
            .u64("completed", self.totals.completed as u64)
            .u64("blocked", self.totals.blocked as u64)
            .u64("identified", self.totals.identified as u64)
            .f64("mean_pixel_recovery", self.totals.mean_pixel_recovery)
            .u64("workers", self.workers as u64)
            .u64("block_size", self.block_size as u64)
            .u64("blocks", self.groups.len() as u64)
            .u64("peak_resident_cells", self.peak_resident_cells as u64)
            .raw(
                "groups",
                &json_array(self.groups.iter().map(|group| group.to_json())),
            )
            .finish()
    }
}

/// Auto block size: a pure function of the matrix size (never the worker
/// count), so group boundaries — and therefore NDJSON progress output — are
/// identical across `--jobs` settings.  Targets ~256 groups, clamped so
/// tiny campaigns still batch a little and huge ones cap per-block memory.
fn auto_block_size(cells_total: usize) -> usize {
    cells_total.div_ceil(256).clamp(16, 1024)
}

/// One executed block parked in the reorder buffer.
struct Block {
    index: usize,
    first_cell: usize,
    results: Vec<Result<CellRecord, AttackError>>,
    wall_clock: Duration,
}

/// Collector/worker shared state, guarded by one mutex + condvar.
struct Shared {
    /// Next block index to claim.
    next_block: usize,
    /// Completed blocks awaiting in-order folding (the reorder buffer).
    ready: BTreeMap<usize, Block>,
    /// Blocks an [`Adversary`] is withholding until the pool drains.
    stash: Vec<Block>,
    /// Cells claimed but not yet folded.
    resident_cells: usize,
    /// High-water mark of `resident_cells`.
    peak_resident_cells: usize,
    /// Workers that have exited their claim loop.
    done_workers: usize,
}

/// Runs `spec` through the streaming engine.
///
/// `executor` produces each cell's record (real scenario or synthetic),
/// `visit` receives every record in strict cell-index order, `progress` is
/// called after each folded group.  [`CampaignSpec::stream`] and
/// [`CampaignSpec::stream_with_executor`] are the public entry points.
pub(crate) fn run<E, V, P>(
    spec: &CampaignSpec,
    config: &StreamConfig,
    executor: &E,
    mut visit: V,
    mut progress: P,
) -> Result<CampaignSummary, AttackError>
where
    E: Fn(&CampaignCell) -> Result<CellRecord, AttackError> + Sync,
    V: FnMut(CellRecord) -> Result<(), AttackError>,
    P: FnMut(&GroupProgress),
{
    let started = Instant::now();
    let cells_total = spec.cell_count();
    if cells_total == 0 {
        return Err(AttackError::EmptyCampaign);
    }
    let block_size = config
        .block_size
        .unwrap_or_else(|| auto_block_size(cells_total));
    let blocks = cells_total.div_ceil(block_size);
    let workers = config
        .workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
        .clamp(1, cells_total);
    // Backpressure window: completed blocks allowed to await folding.
    let max_ready = workers + 2;
    let adversary = config.adversary;

    let shared = Mutex::new(Shared {
        next_block: 0,
        ready: BTreeMap::new(),
        stash: Vec::new(),
        resident_cells: 0,
        peak_resident_cells: 0,
        done_workers: 0,
    });
    let condvar = Condvar::new();
    let abort = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let shared = &shared;
        let condvar = &condvar;
        let abort = &abort;
        for _ in 0..workers {
            scope.spawn(move || {
                let _exit = WorkerExit {
                    shared,
                    condvar,
                    abort,
                    workers,
                    adversary,
                };
                loop {
                    let claim = {
                        let mut state = shared.lock().expect("stream state poisoned");
                        loop {
                            if abort.load(Ordering::Relaxed) || state.next_block >= blocks {
                                break None;
                            }
                            // Backpressure: park instead of outrunning the
                            // collector (disabled under an adversary, which
                            // withholds blocks by design).
                            if adversary.is_none() && state.ready.len() >= max_ready {
                                state = condvar.wait(state).expect("stream state poisoned");
                                continue;
                            }
                            let index = state.next_block;
                            state.next_block += 1;
                            let first_cell = index * block_size;
                            let cells = block_size.min(cells_total - first_cell);
                            state.resident_cells += cells;
                            state.peak_resident_cells =
                                state.peak_resident_cells.max(state.resident_cells);
                            break Some((index, first_cell, cells));
                        }
                    };
                    let Some((index, first_cell, cells)) = claim else {
                        break;
                    };
                    let block_started = Instant::now();
                    let mut results = Vec::with_capacity(cells);
                    for offset in 0..cells {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let cell = spec.cell_at(first_cell + offset);
                        results.push(executor(&cell));
                    }
                    let block = Block {
                        index,
                        first_cell,
                        results,
                        wall_clock: block_started.elapsed(),
                    };
                    let mut state = shared.lock().expect("stream state poisoned");
                    if abort.load(Ordering::Relaxed) {
                        // The collector already gave up on this run; the
                        // (possibly partial) block is dead weight.
                        drop(block);
                    } else if adversary.is_some() {
                        state.stash.push(block);
                    } else {
                        state.ready.insert(index, block);
                    }
                    drop(state);
                    condvar.notify_all();
                }
            });
        }

        // The collector runs on the calling thread: it owns the (non-Sync)
        // visitor, progress hook and accumulator, and folds blocks in
        // strict index order — the reorder buffer above absorbs whatever
        // completion order the pool produces.
        let mut accumulator = CampaignAccumulator::new();
        let mut groups: Vec<GroupSummary> = Vec::with_capacity(blocks);
        let mut ledger = FoldLedger::default();
        let mut first_error: Option<AttackError> = None;
        'collect: for next_fold in 0..blocks {
            let next = {
                let mut state = shared.lock().expect("stream state poisoned");
                loop {
                    if let Some(block) = state.ready.remove(&next_fold) {
                        state.resident_cells -= block.results.len();
                        let resident = state.resident_cells;
                        drop(state);
                        condvar.notify_all();
                        break Some((block, resident));
                    }
                    // Only a panicking worker raises `abort` while the
                    // collector waits.  `thread::scope` re-raises that panic
                    // once every thread has joined, so the partial summary
                    // this leads to is never returned.
                    if abort.load(Ordering::Relaxed) {
                        break None;
                    }
                    assert!(
                        state.done_workers < workers || !state.stash.is_empty(),
                        "stream pool drained without producing block {next_fold}"
                    );
                    state = condvar.wait(state).expect("stream state poisoned");
                }
            };
            let Some((block, resident_after)) = next else {
                break 'collect;
            };
            let cells = block.results.len();
            ledger.fold(block.index, block.first_cell, cells);
            for result in block.results {
                match result {
                    Ok(record) => {
                        accumulator.absorb(&record);
                        if let Err(error) = visit(record) {
                            first_error = Some(error);
                            break;
                        }
                    }
                    Err(error) => {
                        first_error = Some(error);
                        break;
                    }
                }
            }
            if first_error.is_some() {
                raise_abort(shared, abort, condvar);
                break 'collect;
            }
            let group = GroupSummary {
                block: block.index,
                first_cell: block.first_cell,
                cells,
                wall_clock: block.wall_clock,
            };
            groups.push(group);
            let totals = *accumulator.totals();
            progress(&GroupProgress {
                block: group.block,
                first_cell: group.first_cell,
                cells,
                folded_cells: ledger.cells,
                cells_total,
                completed: totals.completed,
                blocked: totals.blocked,
                identified: totals.identified,
                mean_pixel_recovery: totals.mean_pixel_recovery,
                resident_cells: resident_after,
                elapsed: started.elapsed(),
            });
        }

        if let Some(error) = first_error {
            return Err(error);
        }
        // A panicking worker ends the fold early; `thread::scope` re-raises
        // its panic instead of returning this summary.
        if !abort.load(Ordering::Relaxed) {
            ledger.finish(cells_total);
        }
        let peak = shared
            .lock()
            .expect("stream state poisoned")
            .peak_resident_cells;
        Ok(accumulator.into_summary(workers, block_size, peak, groups))
    })
}

/// The collector's exactly-once audit of the block claims: every block
/// index is folded once, in claim order, each block starting at the cell
/// where the previous one ended, and the folded cells add up to the
/// matrix.  Claims come from `next_block` under the state mutex, so this
/// costs one comparison per block.
#[derive(Debug, Default)]
struct FoldLedger {
    /// Blocks folded so far (the index the next block must carry).
    blocks: usize,
    /// Cells folded so far (the first cell the next block must carry).
    cells: usize,
}

impl FoldLedger {
    /// Records one folded block.
    ///
    /// # Panics
    ///
    /// Panics if the block is not the next in claim order, or does not
    /// start where the previous block ended (a duplicated or dropped block).
    fn fold(&mut self, index: usize, first_cell: usize, cells: usize) {
        assert!(
            index == self.blocks && first_cell == self.cells,
            "block {index} at cell {first_cell} folded where block {} at cell {} was due",
            self.blocks,
            self.cells
        );
        self.blocks += 1;
        self.cells += cells;
    }

    /// Checks that the folded blocks covered all `cells_total` cells.
    ///
    /// # Panics
    ///
    /// Panics when they did not.
    fn finish(&self, cells_total: usize) {
        assert_eq!(
            self.cells, cells_total,
            "the stream folded {} of {cells_total} cells",
            self.cells
        );
    }
}

/// Sets `abort` under the state lock, so no thread can check the flag and
/// then park past the wake-up, and wakes every parked thread.
fn raise_abort(shared: &Mutex<Shared>, abort: &AtomicBool, condvar: &Condvar) {
    let state = shared.lock().unwrap_or_else(PoisonError::into_inner);
    abort.store(true, Ordering::Relaxed);
    drop(state);
    condvar.notify_all();
}

/// A worker's exit, run on return and on unwind alike: counts the worker as
/// done (the last one out releases an adversary's stash) and wakes the
/// collector.  A panicking worker first aborts the run, so the collector
/// and the other workers stop instead of waiting for its block forever.
struct WorkerExit<'a> {
    shared: &'a Mutex<Shared>,
    condvar: &'a Condvar,
    abort: &'a AtomicBool,
    workers: usize,
    adversary: Option<Adversary>,
}

impl Drop for WorkerExit<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            raise_abort(self.shared, self.abort, self.condvar);
        }
        let mut state = self.shared.lock().unwrap_or_else(PoisonError::into_inner);
        state.done_workers += 1;
        if state.done_workers == self.workers {
            if let Some(adversary) = self.adversary {
                release_stash(&mut state, adversary);
            }
        }
        drop(state);
        self.condvar.notify_all();
    }
}

/// Moves an adversary's withheld blocks into the reorder buffer in the
/// hostile release order (called by the last worker to exit, under the
/// state lock).
fn release_stash(state: &mut Shared, adversary: Adversary) {
    let mut stash = std::mem::take(&mut state.stash);
    match adversary {
        Adversary::ReverseCompletion => stash.reverse(),
        Adversary::ShuffledCompletion { seed } => {
            let mut mix = seed;
            for i in (1..stash.len()).rev() {
                mix = splitmix64(mix);
                stash.swap(i, (mix % (i as u64 + 1)) as usize);
            }
        }
    }
    for block in stash {
        state.ready.insert(block.index, block);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{CampaignSpec, InputKind};
    use super::*;
    use petalinux_sim::BoardConfig;
    use vitis_ai_sim::ModelKind;

    fn synthetic_spec() -> CampaignSpec {
        CampaignSpec::new("tiny", BoardConfig::tiny_for_tests())
            .with_models(vec![ModelKind::SqueezeNet, ModelKind::MobileNetV2])
            .with_inputs(vec![InputKind::SamplePhoto, InputKind::Corrupted])
            .with_seed(11)
    }

    fn stream_synthetic(spec: &CampaignSpec, config: StreamConfig) -> CampaignSummary {
        spec.stream_with_executor(
            config,
            |cell| Ok(cell.synthetic_record()),
            |_| Ok(()),
            |_| {},
        )
        .unwrap()
    }

    #[test]
    fn auto_block_size_ignores_worker_count_and_scales_with_cells() {
        assert_eq!(auto_block_size(1), 16);
        assert_eq!(auto_block_size(192), 16);
        assert_eq!(auto_block_size(16_384), 64);
        assert_eq!(auto_block_size(1_000_000), 1024);
    }

    #[test]
    fn streaming_fold_is_identical_across_workers_and_adversaries() {
        let spec = synthetic_spec();
        let baseline = stream_synthetic(&spec, StreamConfig::new().with_workers(1));
        assert_eq!(baseline.cells_total, 4);
        for config in [
            StreamConfig::new().with_workers(3).with_block_size(1),
            StreamConfig::new()
                .with_workers(2)
                .with_block_size(1)
                .with_adversary(Adversary::ReverseCompletion),
            StreamConfig::new()
                .with_workers(2)
                .with_block_size(1)
                .with_adversary(Adversary::ShuffledCompletion { seed: 5 }),
        ] {
            let summary = stream_synthetic(&spec, config);
            assert_eq!(summary.deterministic_json(), baseline.deterministic_json());
        }
    }

    #[test]
    fn visitor_sees_cells_in_index_order_and_errors_abort_the_stream() {
        let spec = synthetic_spec();
        let mut seen = Vec::new();
        spec.stream_with_executor(
            StreamConfig::new().with_workers(2).with_block_size(1),
            |cell| Ok(cell.synthetic_record()),
            |record| {
                seen.push(record.cell.index);
                Ok(())
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(seen, vec![0, 1, 2, 3]);

        let error = spec
            .stream_with_executor(
                StreamConfig::new().with_workers(2).with_block_size(1),
                |cell| {
                    if cell.index >= 2 {
                        Err(AttackError::EmptyCampaign)
                    } else {
                        Ok(cell.synthetic_record())
                    }
                },
                |_| Ok(()),
                |_| {},
            )
            .unwrap_err();
        assert!(matches!(error, AttackError::EmptyCampaign));
    }

    #[test]
    fn a_panicking_cell_fails_the_run_instead_of_hanging_it() {
        for workers in [1, 2, 8] {
            let (done, finished) = std::sync::mpsc::channel();
            // The stream runs on its own thread, so a hang fails this test
            // through the watchdog below instead of blocking the suite.
            std::thread::spawn(move || {
                let spec = CampaignSpec::new("tiny", BoardConfig::tiny_for_tests())
                    .with_models(ModelKind::all().to_vec())
                    .with_inputs(vec![InputKind::SamplePhoto, InputKind::Corrupted])
                    .with_seed(11);
                let outcome = std::panic::catch_unwind(|| {
                    spec.stream_with_executor(
                        StreamConfig::new().with_workers(workers).with_block_size(1),
                        |cell| {
                            assert_ne!(cell.index, 5, "deliberate panic in one cell");
                            Ok(cell.synthetic_record())
                        },
                        |_| Ok(()),
                        |_| {},
                    )
                });
                let _ = done.send(outcome.is_err());
            });
            let panicked = finished
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| {
                    panic!("{workers} workers: the stream hung after a cell panic")
                });
            assert!(
                panicked,
                "{workers} workers: the cell panic must fail the run"
            );
        }
    }

    #[test]
    fn the_fold_ledger_rejects_a_duplicated_or_dropped_block() {
        // Blocks of 8 cells over a 20-cell matrix: 0..8, 8..16, 16..20.
        let fold = |blocks: &[(usize, usize, usize)]| {
            std::panic::catch_unwind(|| {
                let mut ledger = FoldLedger::default();
                for &(index, first_cell, cells) in blocks {
                    ledger.fold(index, first_cell, cells);
                }
                ledger.finish(20);
            })
            .is_ok()
        };
        assert!(fold(&[(0, 0, 8), (1, 8, 8), (2, 16, 4)]));
        assert!(
            !fold(&[(0, 0, 8), (0, 0, 8), (1, 8, 8), (2, 16, 4)]),
            "duplicate"
        );
        assert!(!fold(&[(0, 0, 8), (2, 16, 4)]), "dropped in the middle");
        assert!(!fold(&[(0, 0, 8), (1, 8, 8)]), "dropped at the end");
        assert!(!fold(&[(0, 0, 8), (1, 9, 8), (2, 16, 4)]), "cells skipped");
    }

    #[test]
    fn progress_groups_cover_the_matrix_and_render_ndjson() {
        let spec = synthetic_spec();
        let mut lines = Vec::new();
        let summary = spec
            .stream_with_executor(
                StreamConfig::new().with_workers(2).with_block_size(3),
                |cell| Ok(cell.synthetic_record()),
                |_| Ok(()),
                |progress| lines.push(progress.to_ndjson()),
            )
            .unwrap();
        // 4 cells at block size 3 → groups of 3 and 1.
        assert_eq!(summary.groups.len(), 2);
        assert_eq!(summary.groups[0].cells, 3);
        assert_eq!(summary.groups[1].cells, 1);
        assert_eq!(summary.block_size, 3);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"event\":\"group\",\"block\":0,"));
        assert!(lines[1].contains("\"folded_cells\":4,\"cells_total\":4"));
        let bench = summary.bench_json("synthetic");
        assert!(
            bench.starts_with("{\"schema\":\"msa-bench-campaign-v1\",\"campaign\":\"synthetic\",")
        );
        assert!(!bench.contains("_ms\":"));
        assert!(!bench.contains("per_sec\":"));
    }

    #[test]
    fn empty_campaign_errors_before_spawning_the_pool() {
        let spec = CampaignSpec::over_boards(Vec::new());
        let result = spec.stream_with_executor(
            StreamConfig::new(),
            |cell| Ok(cell.synthetic_record()),
            |_| Ok(()),
            |_| {},
        );
        assert!(matches!(result, Err(AttackError::EmptyCampaign)));
    }
}
