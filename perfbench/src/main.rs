//! End-to-end and per-layer benchmark of the memory scraping attack pipeline.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--campaign-seed <n>] [--write-pins]
//! ```
//!
//! One run sets the workload up several times, runs one unmeasured warm-up
//! pass, then measures whole passes for `--seconds` and prints two JSON
//! lines on stdout: host-noise evidence, then the result object
//! (`correct`, `attempted`, `failed`, `metrics`).  `--trace 0` reports the
//! end-to-end metrics; `--trace 1` alternates untraced and traced passes
//! and reports the per-layer metrics.  See `README.md` for definitions.

mod host;
mod pins;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use host::HostCpu;
use pins::{Pins, SummaryPin};
use run::{RealPasses, Setup, StreamPasses, TracedPasses, STREAM_WORKERS};
use stats::{median, quantile, ratio};
use trace::Spans;
use workloads::{Workload, DEFAULT_CAMPAIGN_SEED};

const USAGE: &str = "usage: perfbench --workload <zoo-attack|decay-reconstruct|lifecycle-churn|\
stream-synthetic> --seed <n> --seconds <s> --trace <0|1> [--campaign-seed <n>] [--write-pins]";

/// Fewest measured cells per real-cell run, so each p90 has at least ten
/// samples beyond it.
const MIN_CELLS: usize = 100;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    campaign_seed: u64,
    write_pins: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut campaign_seed = DEFAULT_CAMPAIGN_SEED;
    let mut write_pins = false;
    while let Some(flag) = args.next() {
        if flag == "--write-pins" {
            write_pins = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()? as f64),
            "--trace" => trace = Some(number()? != 0),
            "--campaign-seed" => campaign_seed = number()?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        campaign_seed,
        write_pins,
    })
}

/// One metric of the result object.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run prints.
struct Report {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    metrics: Vec<Metric>,
    /// Extra `"key": number` pairs for the host-noise line.
    host: Vec<(&'static str, f64)>,
}

impl Report {
    fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    finite(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.mismatches.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn host_json(&self) -> String {
        let fields: Vec<String> = self
            .host
            .iter()
            .map(|(key, value)| format!("\"{key}\": {}", finite(*value)))
            .collect();
        format!("{{\"host\": {{{}}}}}", fields.join(", "))
    }
}

/// JSON has no NaN or infinity; a metric that cannot be computed reads 0.
fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.write_pins {
        return match write_pins(&args) {
            Ok(path) => {
                println!("wrote {path}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let pins = match Pins::lookup(args.workload, args.campaign_seed) {
        Ok(pins) => pins,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host_before = HostCpu::read();
    let mut report = if args.workload.real_cells() {
        real_run(&args, &pins)
    } else {
        stream_run(&args, &pins)
    };
    if let (Some(before), Some(after)) = (host_before, HostCpu::read()) {
        report
            .host
            .push(("steal_frac", after.steal_frac_since(before)));
    }
    report.host.push(("nproc", host::nproc() as f64));
    report.host.push(("seed", args.seed as f64));
    report
        .host
        .push(("campaign_seed", args.campaign_seed as f64));
    for mismatch in &report.mismatches {
        eprintln!("perfbench: {mismatch}");
    }
    println!("{}", report.host_json());
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}

/// Records one pass in cell-index order and writes the workload's pin file.
fn write_pins(args: &Args) -> Result<String, String> {
    let setup = Setup::build(args.workload, args.campaign_seed);
    let path = pins::pin_path(args.workload, args.campaign_seed);
    let text = if args.workload.real_cells() {
        let mut records = Vec::new();
        for cell in &setup.cells {
            records.push(run::run_cell(cell, &setup).map_err(|e| e.to_string())?.0);
        }
        let mut passes = RealPasses::new(setup.cells.len());
        passes.records = records.iter().cloned().map(Some).collect();
        let summary = passes.summary(&setup.spec).map_err(|e| e.to_string())?;
        Pins::render(args.workload, args.campaign_seed, summary, &records)
    } else {
        let summary = setup
            .spec
            .stream_with_executor(
                msa_core::campaign::StreamConfig::new(),
                |cell| Ok(cell.synthetic_record()),
                |_| Ok(()),
                |_| {},
            )
            .map_err(|e| e.to_string())?;
        Pins::render(
            args.workload,
            args.campaign_seed,
            SummaryPin::of(&summary),
            &[],
        )
    };
    std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

/// Whether a run that started at `started` has measured long enough.
fn done(started: Instant, seconds: f64, enough_samples: bool) -> bool {
    enough_samples && started.elapsed() >= Duration::from_secs_f64(seconds)
}

/// Quartiles of per-pass throughput, for the host-noise line.
fn pass_rate_quartiles(rates: &[f64]) -> [(&'static str, f64); 4] {
    [
        ("passes", rates.len() as f64),
        ("pass_cells_per_s_q1", quantile(rates, 0.25)),
        ("pass_cells_per_s_median", median(rates)),
        ("pass_cells_per_s_q3", quantile(rates, 0.75)),
    ]
}

/// Each cell's (or block's) fastest time in the run.  Host interference only
/// ever adds time, and on a shared host it comes and goes within seconds, so
/// a cell's fastest pass is its steadiest figure; ranking whole cells, not
/// single timings, keeps each quantile on the same cells from run to run.
fn fastest(per_cell: &[Vec<f64>]) -> Vec<f64> {
    per_cell
        .iter()
        .filter(|samples| !samples.is_empty())
        .map(|samples| samples.iter().copied().fold(f64::INFINITY, f64::min))
        .collect()
}

/// Median and p90 of `values`.
fn p50_p90(values: &[f64]) -> [f64; 2] {
    [median(values), quantile(values, 0.9)]
}

/// Arithmetic mean of `values`; 0.0 for none.
fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

fn verified_frac(attempted: u64, failed: u64) -> f64 {
    1.0 - ratio(failed as f64, attempted as f64)
}

fn real_run(args: &Args, pins: &Pins) -> Report {
    let setup = Setup::build(args.workload, args.campaign_seed);
    let order = run::pass_order(setup.cells.len(), args.seed);
    let mut measured = RealPasses::new(setup.cells.len());
    // Warm-up: fills caches and allocator pools; checked but not timed.
    measured.pass(&setup, &order, pins);
    measured.clear_timings();
    let mut traced = args.trace.then(TracedPasses::default);

    let cpu_before = host::process_cpu_seconds();
    let started = Instant::now();
    loop {
        if let Some(traced) = &mut traced {
            traced.pass(&setup, &order, pins, &measured.records);
        }
        measured.pass(&setup, &order, pins);
        if done(
            started,
            args.seconds,
            traced.is_some() || measured.cells() >= MIN_CELLS,
        ) {
            break;
        }
    }
    let cpu_s = cpu_seconds_since(cpu_before);
    let summary = measured.summary(&setup.spec);
    let mut mismatches = std::mem::take(&mut measured.mismatches);
    let summary = match summary {
        Ok(summary) => {
            if summary != pins.summary {
                mismatches.push("campaign summary differs from its pin".to_string());
            }
            summary
        }
        Err(e) => {
            mismatches.push(format!("campaign summary failed: {e}"));
            pins.summary
        }
    };
    let cells = measured.cells();
    let mut host = pass_rate_quartiles(&measured.pass_rates).to_vec();
    host.push(("cells", cells as f64));
    host.push(("cpu_ms_per_cell", cpu_s * 1e3 / cells as f64));

    if let Some(traced) = traced {
        let overhead = 1.0 - ratio(median(&traced.pass_rates), median(&measured.pass_rates));
        mismatches.extend(traced.mismatches);
        let traced_cells = traced.attempted as f64;
        host.push(("traced_cells", traced_cells));
        host.extend(trace::shares(&traced.spans, traced.traced_s));
        return Report {
            attempted: measured.attempted + traced.attempted,
            failed: measured.failed + traced.failed,
            mismatches,
            metrics: per_layer_metrics(&traced.spans, traced_cells, &setup, None, overhead),
            host,
        };
    }
    // A pass runs each cell once, so the pass rate at every cell's fastest
    // time is one over the mean fastest cell time.
    let cell_ms = fastest(&measured.cell_ms);
    Report {
        attempted: measured.attempted,
        failed: measured.failed,
        metrics: end_to_end_metrics(EndToEnd {
            setup: &setup,
            cells_per_s: ratio(1e3, mean(&cell_ms)),
            cell_ms: p50_p90(&cell_ms),
            attack_ms: p50_p90(&fastest(&measured.attack_ms)),
            summary,
            verified_frac: verified_frac(measured.attempted, measured.failed),
        }),
        mismatches,
        host,
    }
}

fn stream_run(args: &Args, pins: &Pins) -> Report {
    let setup = Setup::build(args.workload, args.campaign_seed);
    let mut measured = StreamPasses::default();
    // Warm-up stream: checked, not timed.
    measured.pass(&setup.spec, pins, false);
    measured.clear_timings();
    let mut traced = args.trace.then(StreamPasses::default);

    let cpu_before = host::process_cpu_seconds();
    let started = Instant::now();
    loop {
        if let Some(traced) = &mut traced {
            traced.pass(&setup.spec, pins, true);
        }
        measured.pass(&setup.spec, pins, false);
        if done(started, args.seconds, true) {
            break;
        }
    }
    let cpu_s = cpu_seconds_since(cpu_before);
    let cells = measured.pass_rates.len() as f64 * setup.spec.cell_count() as f64;
    let mut host = vec![("workers", STREAM_WORKERS as f64)];
    host.extend(pass_rate_quartiles(&measured.pass_rates));
    host.push(("blocks_per_pass", measured.block_cell_ms.len() as f64));
    host.push(("cpu_ms_per_cell", cpu_s * 1e3 / cells));
    let mut mismatches = std::mem::take(&mut measured.mismatches);

    if let Some(mut traced) = traced {
        let overhead = 1.0 - ratio(median(&traced.pass_rates), median(&measured.pass_rates));
        mismatches.append(&mut traced.mismatches);
        return Report {
            attempted: measured.attempted + traced.attempted,
            failed: measured.failed + traced.failed,
            mismatches,
            metrics: per_layer_metrics(&Spans::default(), 0.0, &setup, Some(&traced), overhead),
            host,
        };
    }
    // The pass time at every block's fastest fold, as for real cells.
    let pass_s: f64 = fastest(&measured.block_fold_ms).iter().sum::<f64>() / 1e3;
    // A synthetic cell has no attack stage: its latency is the engine's
    // worker time per cell, amortised over each claimed block.
    let block = p50_p90(&fastest(&measured.block_cell_ms));
    Report {
        attempted: measured.attempted,
        failed: measured.failed,
        metrics: end_to_end_metrics(EndToEnd {
            setup: &setup,
            cells_per_s: ratio(setup.spec.cell_count() as f64, pass_s),
            cell_ms: block,
            attack_ms: block,
            summary: measured.last.unwrap_or(pins.summary),
            verified_frac: verified_frac(measured.attempted, measured.failed),
        }),
        mismatches,
        host,
    }
}

/// Process CPU seconds since `before` (0 without procfs).
fn cpu_seconds_since(before: Option<f64>) -> f64 {
    host::process_cpu_seconds()
        .zip(before)
        .map_or(0.0, |(after, before)| after - before)
}

/// Inputs of the end-to-end metrics.
struct EndToEnd<'a> {
    setup: &'a Setup,
    cells_per_s: f64,
    cell_ms: [f64; 2],
    attack_ms: [f64; 2],
    summary: SummaryPin,
    verified_frac: f64,
}

fn end_to_end_metrics(e: EndToEnd<'_>) -> Vec<Metric> {
    vec![
        metric("setup_s", median(&e.setup.setup_s), "s"),
        metric("cells_per_s", e.cells_per_s, "1/s"),
        metric("cell_ms_p50", e.cell_ms[0], "ms"),
        metric("cell_ms_p90", e.cell_ms[1], "ms"),
        metric("attack_ms_p50", e.attack_ms[0], "ms"),
        metric("attack_ms_p90", e.attack_ms[1], "ms"),
        metric("peak_rss_mib", host::peak_rss_mib().unwrap_or(0.0), "MiB"),
        metric("identified_frac", e.summary.identified_frac, "fraction"),
        metric(
            "pixel_recovery_mean",
            e.summary.pixel_recovery_mean,
            "fraction",
        ),
        metric("verified_frac", e.verified_frac, "fraction"),
    ]
}

fn per_layer_metrics(
    spans: &Spans,
    cells: f64,
    setup: &Setup,
    stream: Option<&StreamPasses>,
    overhead: f64,
) -> Vec<Metric> {
    use trace::*;
    let identify = spans.layer(IDENTIFY);
    let terminate = spans.layer(TERMINATE);
    let scrape = spans.layer(SCRAPE);
    let overlay = spans.layer(SWAP_OVERLAY);
    let per_call = |layer: &Layer, scale: f64| ratio(layer.volume / scale, layer.calls() as f64);
    const PAGE: f64 = zynq_dram::PAGE_SIZE as f64;
    vec![
        metric("analysis.identify_ms", identify.median_ms(), "ms"),
        metric("analysis.identify_mib_s", identify.mib_per_s(), "MiB/s"),
        metric(
            "analysis.identify_hit_frac",
            ratio(identify.hits as f64, identify.calls() as f64),
            "fraction",
        ),
        metric("analysis.marker_ms", spans.layer(MARKER).median_ms(), "ms"),
        metric(
            "analysis.marker_mib_s",
            spans.layer(MARKER).mib_per_s(),
            "MiB/s",
        ),
        metric("analysis.image_ms", spans.layer(IMAGE).median_ms(), "ms"),
        metric(
            "analysis.fuzzy_identify_ms",
            spans.layer(FUZZY).median_ms(),
            "ms",
        ),
        metric(
            "analysis.fuzzy_calls",
            ratio(spans.layer(FUZZY).calls() as f64, cells),
            "count",
        ),
        metric(
            "analysis.entropy_ms",
            spans.layer(ENTROPY).median_ms(),
            "ms",
        ),
        metric("analysis.repair_ms", spans.layer(REPAIR).median_ms(), "ms"),
        metric("core.scrape_ms", scrape.median_ms(), "ms"),
        metric("core.scrape_mib", per_call(&scrape, MIB), "MiB"),
        metric(
            "dram.read_decayed_mib_s",
            spans.layer(READ_DECAYED).mib_per_s(),
            "MiB/s",
        ),
        metric(
            "dram.read_perfect_mib_s",
            spans.layer(READ_PERFECT).mib_per_s(),
            "MiB/s",
        ),
        metric(
            "core.translate_ms",
            spans.layer(TRANSLATE).median_ms(),
            "ms",
        ),
        metric(
            "core.translate_pages",
            per_call(&spans.layer(TRANSLATE), PAGE),
            "count",
        ),
        metric("debugger.poll_ms", spans.layer(POLL).median_ms(), "ms"),
        metric("vitis.launch_ms", spans.layer(LAUNCH).median_ms(), "ms"),
        metric(
            "vitis.launches",
            ratio(spans.layer(LAUNCH).volume, cells),
            "count",
        ),
        metric("petalinux.boot_ms", spans.layer(BOOT).median_ms(), "ms"),
        metric("petalinux.terminate_ms", terminate.median_ms(), "ms"),
        metric("dram.scrub_frames", per_call(&terminate, PAGE), "count"),
        metric("dram.scrub_mib_s", spans.layer(SCRUB).mib_per_s(), "MiB/s"),
        metric("dram.swap_overlay_ms", overlay.median_ms(), "ms"),
        metric("dram.swap_bytes_filled", per_call(&overlay, 1.0), "bytes"),
        metric(
            "scenario.lifecycle_ms",
            spans.layer(LIFECYCLE).median_ms(),
            "ms",
        ),
        metric(
            "signature.standard_ms",
            spans.layer(SIGNATURES).median_ms(),
            "ms",
        ),
        metric(
            "profile.profile_all_ms",
            median(&setup.profile_all_ms),
            "ms",
        ),
        metric(
            "campaign.overhead_us_per_kcell",
            stream.map_or(0.0, |s| median(&s.overhead_us_per_kcell)),
            "us",
        ),
        metric(
            "campaign.peak_resident_cells",
            stream.map_or(0.0, |s| s.peak_resident_cells as f64),
            "count",
        ),
        metric("trace.overhead_frac", overhead, "fraction"),
    ]
}
