//! Regenerates every figure and table of the paper's evaluation as text.
//!
//! Usage:
//!
//! ```text
//! cargo run -p msa-bench --bin experiments            # everything
//! cargo run -p msa-bench --bin experiments -- --fig11 # one artifact
//! ```
//!
//! Flags: `--fig4` … `--fig12`, `--timing` (TAB-A), `--defenses` (TAB-B),
//! `--fingerprint` (TAB-C), `--aslr` (TAB-D), `--boards` (TAB-E),
//! `--multitenant` (TAB-F), `--revival` (Resurrection-style pid/frame reuse
//! per sanitize policy, two boards), `--livetraffic` (residue decay vs. live
//! churn depth), `--remanence` (recovery vs. Pentimento-style analog
//! residue decay), `--reconstruct`
//! (the decay-tolerant reconstructor vs. the exact-matching attacker at
//! matched cell seeds), `--swap` (compressed-swap and copy-on-write residue
//! vs. sanitize policy), `--campaign` (fleet-scale matrix summary), `--all`.
//!
//! Modifiers: `--tiny` runs the matrix tables on the small test board (the
//! CI smoke configuration); `--jobs=N` caps the campaign worker pool;
//! `--stream` switches `--campaign` onto the streaming engine (NDJSON
//! progress per folded cell group on stdout, plus `BENCH_campaign.json` in
//! the working directory); `--stress` streams a 1,000,000-cell matrix
//! through the synthetic executor to demonstrate bounded residency.
//!
//! Every matrix table here is executed by the `msa_core::campaign` worker
//! pool — the `evaluate_*` sweeps are campaign specs, and `--fingerprint`,
//! `--boards` and `--campaign` build their specs directly.

use msa_core::attack::{AttackConfig, AttackPipeline};
use msa_core::campaign::{CampaignSpec, CampaignSummary, InputKind, StreamConfig};
use msa_core::defense::{
    evaluate_cow_retention, evaluate_isolation, evaluate_layout_randomization,
    evaluate_multi_tenant, evaluate_reconstruction, evaluate_remanence, evaluate_revival,
    evaluate_sanitize_policies, evaluate_swap,
};
use msa_core::profile::Profiler;
use msa_core::report::{bytes, json_array, percent, JsonObject, TextTable};
use msa_core::{ScrapeMode, VictimSchedule};
use petalinux_sim::{BoardConfig, IsolationPolicy, Kernel, Shell, UserId};
use vitis_ai_sim::{DpuRunner, Image, ModelKind};
use xsdb::DebugSession;
use zynq_dram::{RemanenceModel, SanitizePolicy};

/// The victim user id used throughout the experiments.
const VICTIM_USER: UserId = UserId::new(0);

/// The attacker user id used throughout the experiments.
const ATTACKER_USER: UserId = UserId::new(1);

const KNOWN_FLAGS: &[&str] = &[
    "--all",
    "--fig4",
    "--fig5",
    "--fig6",
    "--fig7",
    "--fig8",
    "--fig9",
    "--fig10",
    "--fig11",
    "--fig12",
    "--timing",
    "--defenses",
    "--fingerprint",
    "--aslr",
    "--boards",
    "--multitenant",
    "--revival",
    "--livetraffic",
    "--remanence",
    "--reconstruct",
    "--swap",
    "--audit",
    "--campaign",
    "--tiny",
    "--stream",
    "--stress",
];

/// Parsed command line: artifact flags plus the board/worker modifiers.
struct Options {
    flags: Vec<String>,
    tiny: bool,
    stream: bool,
    stress: bool,
    jobs: Option<usize>,
}

impl Options {
    fn parse(args: Vec<String>) -> Result<Options, String> {
        let mut flags = Vec::new();
        let mut tiny = false;
        let mut stream = false;
        let mut stress = false;
        let mut jobs = None;
        for arg in args {
            if let Some(n) = arg.strip_prefix("--jobs=") {
                jobs = Some(
                    n.parse::<usize>()
                        .map_err(|_| format!("invalid worker count in `{arg}`"))?
                        .max(1),
                );
            } else if arg == "--tiny" {
                tiny = true;
            } else if arg == "--stream" {
                stream = true;
            } else if arg == "--stress" {
                stress = true;
            } else if KNOWN_FLAGS.contains(&arg.as_str()) {
                flags.push(arg);
            } else {
                return Err(format!("unknown flag `{arg}`"));
            }
        }
        Ok(Options {
            flags,
            tiny,
            stream,
            stress,
            jobs,
        })
    }

    fn want(&self, flag: &str) -> bool {
        debug_assert!(
            KNOWN_FLAGS.contains(&flag),
            "dispatch flag {flag} missing from KNOWN_FLAGS"
        );
        let all = self.flags.is_empty() || self.flags.iter().any(|a| a == "--all");
        all || self.flags.iter().any(|a| a == flag)
    }

    /// The board the matrix tables run on.
    fn board(&self) -> BoardConfig {
        if self.tiny {
            BoardConfig::tiny_for_tests()
        } else {
            BoardConfig::zcu104()
        }
    }

    fn board_name(&self) -> &'static str {
        if self.tiny {
            "tiny"
        } else {
            "ZCU104"
        }
    }

    /// Applies the `--jobs` cap to a campaign spec.
    fn capped(&self, spec: CampaignSpec) -> CampaignSpec {
        match self.jobs {
            Some(jobs) => spec.with_jobs(jobs),
            None => spec,
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let options = match Options::parse(std::env::args().skip(1).collect()) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: experiments [{} | --jobs=N]",
                KNOWN_FLAGS.join(" | ")
            );
            std::process::exit(2);
        }
    };

    if options.want("--fig4") {
        fig4();
    }
    let figure_flags = [
        "--fig5", "--fig6", "--fig7", "--fig8", "--fig9", "--fig10", "--fig11", "--fig12",
        "--timing",
    ];
    if figure_flags.iter().any(|f| options.want(f)) {
        attack_walkthrough(&options)?;
    }
    if options.want("--defenses") {
        defenses(&options)?;
    }
    if options.want("--fingerprint") {
        fingerprint(&options)?;
    }
    if options.want("--aslr") {
        aslr(&options)?;
    }
    if options.want("--boards") {
        boards(&options)?;
    }
    if options.want("--multitenant") {
        multitenant(&options)?;
    }
    if options.want("--revival") {
        revival(&options)?;
    }
    if options.want("--livetraffic") {
        livetraffic(&options)?;
    }
    if options.want("--remanence") {
        remanence(&options)?;
    }
    if options.want("--reconstruct") {
        reconstruct(&options)?;
    }
    if options.want("--swap") {
        swap(&options)?;
    }
    if options.want("--audit") {
        audit()?;
    }
    if options.want("--campaign") {
        campaign(&options)?;
    }
    Ok(())
}

/// `--audit`: the static residue-flow verdict matrix from `msa-analyzer`.
/// No campaign runs — the verdicts come from the abstract interpreter, so
/// the table is board-independent (`--tiny` and `--jobs` have no effect).
/// The machine-readable twin goes to `ANALYSIS.json` (schema
/// `msa-analyzer-v1`), golden-pinned byte-for-byte in the analyzer crate.
fn audit() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== AUDIT: static residue-flow verdicts over the shipped audit matrix ===");
    let report = msa_analyzer::AuditReport::generate();
    print!("{report_table}", report_table = report.render_table());
    let (scrubbed, bounded, leaks) = report.verdict_counts();
    println!(
        "{cells} cells: {scrubbed} scrubbed, {bounded} decay-bounded, {leaks} leak\n",
        cells = report.cells().len()
    );
    std::fs::write("ANALYSIS.json", report.to_json())?;
    eprintln!("wrote ANALYSIS.json");
    Ok(())
}

fn fig4() {
    println!("=== FIG4: original vs corrupted input image ===");
    let original = Image::sample_photo(224, 224);
    let corrupted = Image::corrupted(224, 224);
    println!(
        "original : {original} ({} bytes)",
        original.as_bytes().len()
    );
    println!("corrupted: {corrupted}, every pixel set to 0xFFFFFF");
    let ff_fraction = corrupted.as_bytes().iter().filter(|&&b| b == 0xFF).count() as f64
        / corrupted.as_bytes().len() as f64;
    println!("corrupted 0xFF byte fraction: {}", percent(ff_fraction));
    println!(
        "pixel agreement original vs corrupted: {}\n",
        percent(original.pixel_recovery_rate(&corrupted))
    );
}

fn attack_walkthrough(options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let want = |flag: &str| options.want(flag);
    let board = options.board();
    let profiles = Profiler::new(board).profile_all();
    let pipeline = AttackPipeline::new(AttackConfig::default()).with_profiles(profiles);

    let mut kernel = Kernel::boot(board);
    let shell = Shell::new(ATTACKER_USER);
    let mut debugger = DebugSession::connect(ATTACKER_USER);

    // Background processes so the listings have the paper's shape (a kernel
    // worker thread and the attacker's own shell).
    kernel.spawn(VICTIM_USER, &["[kworker/3:0-events]"])?;
    kernel.spawn(ATTACKER_USER, &["-sh"])?;

    if want("--fig5") {
        println!("=== FIG5: ps -ef before the victim runs ===");
        println!("{}", shell.ps_ef(&kernel));
    }

    let victim = DpuRunner::new(ModelKind::Resnet50Pt)
        .with_input(Image::corrupted(224, 224))
        .launch(&mut kernel, VICTIM_USER)?;

    if want("--fig6") {
        println!("=== FIG6: ps -ef with the victim running ===");
        println!("{}", shell.ps_ef(&kernel));
    }

    let observation = pipeline.poll_and_observe(&mut debugger, &kernel)?;
    let pid = observation.pid();
    let translation = observation.translation();

    if want("--fig7") {
        println!("=== FIG7: heap range from /proc/{pid}/maps ===");
        let maps = debugger.read_maps(&kernel, pid)?;
        for line in maps.lines().filter(|l| l.contains("[heap]")) {
            println!("{line}");
        }
        println!();
    }

    if want("--fig8") {
        println!("=== FIG8: virtual-to-physical conversion of the heap bounds ===");
        println!(
            "./virtual_to_physical.out {pid} 0x{} -> {}",
            translation.heap_start(),
            translation.phys_start().expect("resident")
        );
        println!(
            "./virtual_to_physical.out {pid} 0x{} -> {}",
            translation.heap_end(),
            translation.phys_end().expect("resident")
        );
        println!();
    }

    victim.terminate(&mut kernel)?;

    if want("--fig9") {
        println!("=== FIG9: ps -ef after victim termination (pid {pid} gone) ===");
        println!("{}", shell.ps_ef(&kernel));
    }

    if want("--fig10") {
        println!("=== FIG10: devmem reads of residual physical memory ===");
        let start = translation.phys_start().expect("resident");
        for offset in [0u64, 0x730, 0x1000, 0x2000] {
            let word = debugger.read_phys_u32(&kernel, start + offset)?;
            println!("devmem {} -> {:#010x}", start + offset, word);
        }
        println!();
    }

    let outcome = pipeline.execute(&mut debugger, &kernel, &observation)?;
    let dump = pipeline.scrape_after_termination(&mut debugger, &kernel, &observation)?;

    if want("--fig11") {
        println!("=== FIG11: grep \"resnet50\" over the hexdump of the scraped heap ===");
        for line in dump.to_hexdump().grep("resnet50").into_iter().take(4) {
            println!("{line}");
        }
        println!();
    }

    if want("--fig12") {
        println!("=== FIG12: corrupted-image marker (FFFF FFFF) rows and reconstruction ===");
        if let Some(run) = outcome.marker_runs.first() {
            println!(
                "first marker run: heap offset {:#x}, {} bytes",
                run.offset, run.len
            );
            let hexdump = dump.to_hexdump();
            let first_row = usize::try_from(run.offset)? / 16;
            for row in hexdump.rows().skip(first_row).take(4) {
                println!("{}", row.render());
            }
        }
        println!(
            "reconstructed image matches victim input: {}",
            percent(outcome.image_recovery_rate(&Image::corrupted(224, 224)))
        );
        println!();
    }

    if want("--timing") {
        println!("=== TAB-A: per-step attack latency (this run) ===");
        let mut table = TextTable::new(vec!["step", "wall-clock"]);
        table.add_row(vec![
            "1. poll for pid".into(),
            format!("{:?}", outcome.timings.poll),
        ]);
        table.add_row(vec![
            "2. translate heap".into(),
            format!("{:?}", outcome.timings.translate),
        ]);
        table.add_row(vec![
            "3. scrape physical memory".into(),
            format!("{:?}", outcome.timings.scrape),
        ]);
        table.add_row(vec![
            "4. analyse dump".into(),
            format!("{:?}", outcome.timings.analyze),
        ]);
        table.add_row(vec![
            "total".into(),
            format!("{:?}", outcome.timings.total()),
        ]);
        println!("{table}");
        println!(
            "bytes scraped: {}, dump coverage: {}\n",
            bytes(outcome.bytes_scraped as u64),
            percent(outcome.dump_coverage)
        );
    }
    Ok(())
}

fn defenses(options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    println!("=== TAB-B: sanitization policies vs the attack (victim: resnet50_pt) ===");
    let mut table = TextTable::new(vec![
        "policy",
        "model identified",
        "pixel recovery",
        "residue frames",
        "scrub cost (cycles)",
        "collateral",
    ]);
    for row in evaluate_sanitize_policies(options.board(), ModelKind::Resnet50Pt)? {
        table.add_row(vec![
            row.policy.to_string(),
            row.model_identified.to_string(),
            percent(row.pixel_recovery),
            row.residue_frames.to_string(),
            format!("{:.0}", row.scrub_cost_cycles),
            bytes(row.collateral_bytes),
        ]);
    }
    println!("{table}");

    println!("=== isolation-policy ablation ===");
    let mut table = TextTable::new(vec![
        "isolation",
        "attack completed",
        "model identified",
        "pixel recovery",
        "blocked at",
    ]);
    for row in evaluate_isolation(options.board(), ModelKind::Resnet50Pt)? {
        table.add_row(vec![
            row.isolation.to_string(),
            row.attack_completed.to_string(),
            row.model_identified.to_string(),
            percent(row.pixel_recovery),
            row.blocked_at.unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("{table}");
    Ok(())
}

fn fingerprint(options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    println!("=== TAB-C: model identification accuracy across the zoo ===");
    let report = options
        .capped(
            CampaignSpec::new(options.board_name(), options.board())
                .with_models(ModelKind::all().to_vec()),
        )
        .run()?;
    let mut table = TextTable::new(vec![
        "victim model",
        "identified as",
        "correct",
        "confidence",
        "image recovered",
    ]);
    for record in report.cells() {
        let metrics = record.metrics.as_ref().expect("permissive cells complete");
        table.add_row(vec![
            record.cell.model.to_string(),
            metrics
                .identified_model
                .map(|m| m.to_string())
                .unwrap_or_else(|| "<none>".into()),
            metrics.model_identified.to_string(),
            percent(metrics.identification_confidence),
            percent(metrics.pixel_recovery),
        ]);
    }
    println!("{table}");
    println!(
        "identification accuracy: {}/{}\n",
        report.identified_count(),
        report.len()
    );
    Ok(())
}

fn aslr(options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    println!("=== TAB-D: layout randomization vs the attack ===");
    let mut table = TextTable::new(vec![
        "allocation order",
        "aslr",
        "scrape mode",
        "model identified",
        "pixel recovery",
    ]);
    for row in evaluate_layout_randomization(options.board(), ModelKind::Resnet50Pt)? {
        table.add_row(vec![
            row.allocation_order.to_string(),
            row.aslr.to_string(),
            row.scrape_mode.to_string(),
            row.model_identified.to_string(),
            percent(row.pixel_recovery),
        ]);
    }
    println!("{table}");
    Ok(())
}

fn boards(options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    println!("=== TAB-E: attack success per board preset ===");
    let report = options
        .capped(
            CampaignSpec::new("ZCU104", BoardConfig::zcu104())
                .with_board("ZCU102", BoardConfig::zcu102())
                .with_inputs(vec![InputKind::Corrupted]),
        )
        .run()?;
    let mut table = TextTable::new(vec![
        "board",
        "dram window",
        "model identified",
        "pixel recovery",
        "residue frames",
    ]);
    for record in report.cells() {
        let metrics = record.metrics.as_ref().expect("permissive cells complete");
        table.add_row(vec![
            record.cell.board_name.clone(),
            bytes(record.cell.board.dram().capacity()),
            metrics.model_identified.to_string(),
            percent(metrics.pixel_recovery),
            metrics.residue_frames.to_string(),
        ]);
    }
    println!("{table}");
    Ok(())
}

fn multitenant(options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    println!("=== TAB-F: multi-tenant residue and sanitizer collateral ===");
    let mut table = TextTable::new(vec![
        "policy",
        "victim model identified",
        "active tenant clobbered",
        "active tenant intact",
    ]);
    for row in evaluate_multi_tenant(
        options.board(),
        ModelKind::SqueezeNet,
        ModelKind::MobileNetV2,
    )? {
        table.add_row(vec![
            row.policy.to_string(),
            row.victim_model_identified.to_string(),
            bytes(row.active_tenant_bytes_clobbered),
            row.active_tenant_data_intact.to_string(),
        ]);
    }
    println!("{table}");
    Ok(())
}

/// Residue-lifetime table 1: the Resurrection-style revival window per
/// sanitize policy, on two boards (paper boards by default, two tiny
/// allocation-order variants under `--tiny` so the CI smoke stays fast).
fn revival(options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    println!("=== REVIVAL: residue inherited by pid/frame reuse (victim: resnet50_pt) ===");
    let boards: Vec<(&str, BoardConfig)> = if options.tiny {
        vec![
            ("tiny", BoardConfig::tiny_for_tests()),
            (
                "tiny-fifo",
                BoardConfig::tiny_for_tests()
                    .with_allocation_order(zynq_mmu::AllocationOrder::FifoReuse),
            ),
        ]
    } else {
        vec![
            ("ZCU104", BoardConfig::zcu104()),
            ("ZCU102", BoardConfig::zcu102()),
        ]
    };
    let mut table = TextTable::new(vec![
        "board",
        "policy",
        "victim frames",
        "revived frames",
        "inherited",
        "inheritance rate",
        "lost before scrape",
        "model identified",
        "pixel recovery",
    ]);
    for (name, board) in boards {
        for row in evaluate_revival(board, ModelKind::Resnet50Pt)? {
            table.add_row(vec![
                name.to_string(),
                row.policy.to_string(),
                row.victim_frames.to_string(),
                row.revived_heap_frames.to_string(),
                row.inherited_frames.to_string(),
                percent(row.inheritance_rate),
                row.frames_lost_before_scrape.to_string(),
                row.model_identified.to_string(),
                percent(row.pixel_recovery),
            ]);
        }
    }
    println!("{table}");
    Ok(())
}

/// Residue-lifetime table 2: scrape-coverage decay under live tenant churn.
///
/// Each churn depth runs as its own single-cell campaign with the *same*
/// campaign seed, so every row plays the identical tenant-model rotation and
/// the only thing varying down the table is how much churn the scrape
/// overlaps — the controlled decay sweep.
fn livetraffic(options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    println!("=== LIVE TRAFFIC: residue decay vs. churn depth (victim: resnet50_pt) ===");
    let mut table = TextTable::new(vec![
        "schedule",
        "churn events",
        "victim frames",
        "lost before scrape",
        "residue survival",
        "dump coverage",
        "model identified",
        "pixel recovery",
    ]);
    for churn_rate in [0usize, 1, 2, 4] {
        let report = options
            .capped(
                CampaignSpec::new(options.board_name(), options.board())
                    .with_inputs(vec![InputKind::Corrupted])
                    .with_schedules(vec![VictimSchedule::LiveTraffic {
                        tenants: 2,
                        churn_rate,
                    }])
                    // A rotation whose tenant sizes step up gradually, so the
                    // decay curve is visible rather than saturating on the
                    // first churn event.
                    .with_seed(41),
            )
            .run()?;
        let record = report
            .cells()
            .first()
            .ok_or("live-traffic campaign ran no cell")?;
        let metrics = record.metrics.as_ref().expect("permissive cells complete");
        let lifetime = metrics.residue_lifetime;
        table.add_row(vec![
            record.cell.schedule.to_string(),
            lifetime.churn_events.to_string(),
            lifetime.victim_frames.to_string(),
            lifetime.frames_lost_before_scrape.to_string(),
            percent(lifetime.survival_rate()),
            percent(metrics.dump_coverage),
            metrics.model_identified.to_string(),
            percent(metrics.pixel_recovery),
        ]);
    }
    println!("{table}");
    Ok(())
}

/// The `--remanence` artifact: recovery vs. Pentimento-style analog residue
/// decay.
///
/// One row per remanence model, read by the paper's single-sweep attacker.
/// Decay advances on logical ticks (scenario steps, churned scrape chunks),
/// never wall clock, so this whole table is deterministic and
/// `--jobs`-independent.
fn remanence(options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    println!("=== REMANENCE: recovery vs. analog residue decay (victim: resnet50_pt) ===");
    let rows = evaluate_remanence(options.board(), ModelKind::Resnet50Pt)?;
    let mut table = TextTable::new(vec![
        "remanence",
        "model identified",
        "pixel recovery",
        "decayed recovery",
        "bits flipped",
        "raw residue",
    ]);
    for row in &rows {
        table.add_row(vec![
            row.remanence.to_string(),
            row.model_identified.to_string(),
            percent(row.pixel_recovery),
            percent(row.decayed_recovery),
            row.residue_bits_flipped.to_string(),
            bytes(row.residue_bytes_raw),
        ]);
    }
    println!("{table}");
    Ok(())
}

/// The `--reconstruct` artifact: the decay-tolerant reconstructor
/// (multi-snapshot fusion, fuzzy signature identification, neighbor repair)
/// against the exact-matching single-read attacker, one row per remanence
/// point at **matched cell seeds** — each pair of columns reads the same
/// decayed residue, so the gain column is pure algorithm, no luck.
///
/// The verdict line asserts the reconstruction claim: strictly better pixel
/// recovery at every decayed point.  The machine-readable twin goes to
/// `BENCH_reconstruct.json` (schema `msa-bench-reconstruct-v1`); the note
/// goes to stderr because the golden tests pin stdout byte-for-byte.
fn reconstruct(options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    /// Snapshots fused per scrape window: the attacker re-reads the window
    /// on consecutive decay ticks and ORs the reads (decay only clears
    /// bits, so fusion is sound and monotone).
    const SNAPSHOTS: usize = 3;

    println!(
        "=== RECONSTRUCT: decay-tolerant reconstruction vs exact matching (victim: resnet50_pt) ==="
    );
    let rows = evaluate_reconstruction(options.board(), ModelKind::Resnet50Pt, SNAPSHOTS)?;
    let mut table = TextTable::new(vec![
        "remanence",
        "id (exact)",
        "recovery (exact)",
        "id (reconstructed)",
        "recovery (reconstructed)",
        "gain",
        "decayed recovery",
    ]);
    for row in &rows {
        let gain = row.recovery_gain();
        table.add_row(vec![
            row.remanence.to_string(),
            row.baseline_identified.to_string(),
            percent(row.baseline_recovery),
            row.reconstructed_identified.to_string(),
            percent(row.reconstructed_recovery),
            if gain.is_finite() {
                format!("{gain:.2}x")
            } else {
                "inf".into()
            },
            percent(row.decayed_recovery),
        ]);
    }
    println!("{table}");
    let strictly_better = rows
        .iter()
        .filter(|r| r.remanence != RemanenceModel::Perfect)
        .all(|r| r.reconstructed_recovery > r.baseline_recovery);
    println!(
        "reconstruction strictly beats exact matching at every decayed point: {strictly_better}\n"
    );

    let json_rows: Vec<String> = rows
        .iter()
        .map(|row| {
            JsonObject::new()
                .str("remanence", &row.remanence.to_string())
                .bool("baseline_identified", row.baseline_identified)
                .f64("baseline_recovery", row.baseline_recovery)
                .bool("reconstructed_identified", row.reconstructed_identified)
                .f64("reconstructed_recovery", row.reconstructed_recovery)
                .f64("recovery_gain", row.recovery_gain())
                .f64("decayed_recovery", row.decayed_recovery)
                .finish()
        })
        .collect();
    let json = JsonObject::new()
        .str("schema", "msa-bench-reconstruct-v1")
        .str("board", options.board_name())
        .str("model", "resnet50_pt")
        .u64("snapshots", SNAPSHOTS as u64)
        .bool("strictly_better_when_decayed", strictly_better)
        .raw("rows", &json_array(&json_rows))
        .finish();
    std::fs::write("BENCH_reconstruct.json", format!("{json}\n"))?;
    eprintln!("wrote BENCH_reconstruct.json");
    Ok(())
}

/// The `--swap` artifact: the two residue substrates that live *beyond* the
/// DRAM frames every TAB-B sanitizer targets.
///
/// Table one puts the board under memory pressure so the kernel compresses
/// the victim's cold heap pages into swap before termination; frame-oriented
/// scrubbers leave the slots intact and the attacker decompresses them back
/// over the scrubbed dump.  Table two forks CoW children off the victim, so
/// its heap frames never return to the free list and zero-on-free has
/// nothing to zero.  The machine-readable twin goes to `BENCH_swap.json`
/// (schema `msa-bench-swap-v1`); the note goes to stderr because the golden
/// tests pin stdout byte-for-byte.
fn swap(options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    /// Fraction of the victim heap swapped out before termination.
    const SWAP_PRESSURE: u8 = 100;
    /// CoW children the fork-heavy victim leaves behind.
    const COW_CHILDREN: usize = 2;

    println!(
        "=== SWAP: compressed-swap residue vs sanitize policy (victim: squeezenet, board: {}) ===",
        options.board_name()
    );
    let swap_rows = evaluate_swap(options.board(), ModelKind::SqueezeNet, SWAP_PRESSURE)?;
    let mut table = TextTable::new(vec![
        "policy",
        "scrubs swap",
        "swap resident",
        "residue frames",
        "identified",
        "recovery",
    ]);
    for row in &swap_rows {
        table.add_row(vec![
            row.policy.to_string(),
            row.scrubs_swap.to_string(),
            bytes(row.swap_resident_bytes),
            row.residue_frames.to_string(),
            row.model_identified.to_string(),
            percent(row.pixel_recovery),
        ]);
    }
    println!("{table}");
    let frame_only_leaks = swap_rows
        .iter()
        .filter(|r| !r.scrubs_swap && r.policy != SanitizePolicy::None)
        .any(|r| r.swap_resident_bytes > 0 && r.pixel_recovery > 0.0);
    let swap_aware_holds = swap_rows
        .iter()
        .filter(|r| r.scrubs_swap)
        .all(|r| r.swap_resident_bytes == 0);
    println!("frame-only scrubbing leaves swap residue readable: {frame_only_leaks}");
    println!("swap-aware policies empty the swap store: {swap_aware_holds}\n");

    println!(
        "=== SWAP: CoW-retained residue vs sanitize policy (fork-heavy victim, {COW_CHILDREN} children) ==="
    );
    let cow_rows = evaluate_cow_retention(options.board(), ModelKind::SqueezeNet, COW_CHILDREN)?;
    let mut table = TextTable::new(vec![
        "policy",
        "victim frames",
        "cow inherited",
        "identified",
        "recovery",
    ]);
    for row in &cow_rows {
        table.add_row(vec![
            row.policy.to_string(),
            row.victim_frames.to_string(),
            row.cow_inherited_frames.to_string(),
            row.model_identified.to_string(),
            percent(row.pixel_recovery),
        ]);
    }
    println!("{table}");
    let cow_survives_zero_on_free = cow_rows
        .iter()
        .filter(|r| r.policy == SanitizePolicy::ZeroOnFree)
        .all(|r| r.cow_inherited_frames > 0 && r.pixel_recovery > 0.0);
    println!("CoW shares survive zero-on-free: {cow_survives_zero_on_free}\n");

    let swap_json: Vec<String> = swap_rows
        .iter()
        .map(|row| {
            JsonObject::new()
                .str("policy", &row.policy.to_string())
                .bool("scrubs_swap", row.scrubs_swap)
                .u64("swap_resident_bytes", row.swap_resident_bytes)
                .u64("residue_frames", row.residue_frames as u64)
                .bool("model_identified", row.model_identified)
                .f64("pixel_recovery", row.pixel_recovery)
                .finish()
        })
        .collect();
    let cow_json: Vec<String> = cow_rows
        .iter()
        .map(|row| {
            JsonObject::new()
                .str("policy", &row.policy.to_string())
                .u64("victim_frames", row.victim_frames as u64)
                .u64("cow_inherited_frames", row.cow_inherited_frames as u64)
                .bool("model_identified", row.model_identified)
                .f64("pixel_recovery", row.pixel_recovery)
                .finish()
        })
        .collect();
    let json = JsonObject::new()
        .str("schema", "msa-bench-swap-v1")
        .str("board", options.board_name())
        .str("model", "squeezenet")
        .u64("swap_pressure", SWAP_PRESSURE as u64)
        .u64("cow_children", COW_CHILDREN as u64)
        .bool("frame_only_leaks_swap", frame_only_leaks)
        .bool("swap_aware_empties_swap", swap_aware_holds)
        .bool("cow_survives_zero_on_free", cow_survives_zero_on_free)
        .raw("swap_rows", &json_array(&swap_json))
        .raw("cow_rows", &json_array(&cow_json))
        .finish();
    std::fs::write("BENCH_swap.json", format!("{json}\n"))?;
    eprintln!("wrote BENCH_swap.json");
    Ok(())
}

/// The fleet-scale demonstration: a 192-cell matrix over models × inputs ×
/// sanitization × isolation × scrape modes, run on the shared worker pool
/// and summarized per axis.  Always uses the tiny board so the matrix stays
/// fast even under `--all`.
///
/// With `--stream` the same matrix runs on the streaming engine: one NDJSON
/// progress line per folded cell group on stdout, then the machine-readable
/// `BENCH_campaign.json` in the working directory.  With `--stress` a
/// 1,000,000-cell matrix is streamed through the synthetic executor instead,
/// demonstrating that peak residency stays bounded by the pool, not the
/// matrix.
fn campaign(options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    if options.stress {
        return campaign_stress(options);
    }
    let spec = options.capped(
        CampaignSpec::new("tiny", BoardConfig::tiny_for_tests())
            .with_models(ModelKind::all().to_vec())
            .with_inputs(vec![InputKind::SamplePhoto, InputKind::Corrupted])
            .with_sanitize_policies(vec![
                SanitizePolicy::None,
                SanitizePolicy::SelectiveScrub,
                SanitizePolicy::Background { delay_ticks: 1000 },
            ])
            .with_isolation_policies(vec![IsolationPolicy::Permissive, IsolationPolicy::Confined])
            .with_scrape_modes(vec![ScrapeMode::ContiguousRange, ScrapeMode::PerPage])
            .with_seed(2024),
    );
    if options.stream {
        println!("=== CAMPAIGN (streaming): fleet-scale scenario matrix (tiny board) ===");
        let summary = spec.stream_with_progress(StreamConfig::default(), |progress| {
            println!("{}", progress.to_ndjson());
        })?;
        return report_stream_summary("tiny-sweep", &summary);
    }
    println!("=== CAMPAIGN: fleet-scale scenario matrix (tiny board) ===");
    let report = spec.run()?;
    println!(
        "{} cells on {} workers: {} completed, {} blocked, {} identified\n",
        report.len(),
        report.workers(),
        report.completed_count(),
        report.blocked_count(),
        report.identified_count(),
    );

    for (title, groups) in [
        (
            "per sanitize policy",
            report.group_by(|r| r.cell.sanitize.to_string()),
        ),
        (
            "per isolation policy",
            report.group_by(|r| r.cell.isolation.to_string()),
        ),
        (
            "per scrape mode",
            report.group_by(|r| r.cell.scrape_mode.to_string()),
        ),
    ] {
        println!("--- {title} ---");
        let mut table = TextTable::new(vec![
            "group",
            "cells",
            "completed",
            "blocked",
            "identified",
            "mean pixel recovery",
        ]);
        for (key, stats) in groups {
            table.add_row(vec![
                key,
                stats.cells.to_string(),
                stats.completed.to_string(),
                stats.blocked.to_string(),
                stats.identified.to_string(),
                percent(stats.mean_pixel_recovery),
            ]);
        }
        println!("{table}");
    }
    Ok(())
}

/// The bounded-residency demonstration behind `--campaign --stress`: a
/// 1,000,000-cell matrix (125 fleet boards × 8 models × 2 inputs × 5
/// sanitize policies × 2 isolation policies × 2 scrape modes × 5 remanence
/// models × 5 victim schedules) streamed through the synthetic executor so
/// the run is bounded by fold throughput rather than scenario execution.
/// Only every 64th group is echoed as NDJSON to keep the log readable; the
/// full aggregate lands in `BENCH_campaign.json`.
fn campaign_stress(options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    println!("=== CAMPAIGN (stress): 1,000,000-cell synthetic stream ===");
    let boards = (0..125)
        .map(|i| (format!("fleet-{i:03}"), BoardConfig::tiny_for_tests()))
        .collect();
    let spec = options.capped(
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
            .with_seed(2024),
    );
    let summary = spec.stream_with_executor(
        StreamConfig::default(),
        |cell| Ok(cell.synthetic_record()),
        |_| Ok(()),
        |progress| {
            if progress.block % 64 == 0 {
                println!("{}", progress.to_ndjson());
            }
        },
    )?;
    report_stream_summary("stress-1m-synthetic", &summary)
}

/// Prints the streaming headline and writes `BENCH_campaign.json` next to
/// the invocation, so CI can diff the machine-readable shape.
fn report_stream_summary(
    name: &str,
    summary: &CampaignSummary,
) -> Result<(), Box<dyn std::error::Error>> {
    let totals = &summary.totals;
    println!(
        "{} cells on {} workers in {} blocks (block size {}): {} completed, {} blocked, {} identified",
        summary.cells_total,
        summary.workers,
        summary.groups.len(),
        summary.block_size,
        totals.completed,
        totals.blocked,
        totals.identified,
    );
    println!(
        "mean pixel recovery {}, peak resident cells {}",
        percent(totals.mean_pixel_recovery),
        summary.peak_resident_cells,
    );
    std::fs::write(
        "BENCH_campaign.json",
        format!("{}\n", summary.bench_json(name)),
    )?;
    println!("wrote BENCH_campaign.json\n");
    Ok(())
}
