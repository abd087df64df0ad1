//! Golden-output pin for the experiments binary.
//!
//! PR 2 established that the campaign-backed tables are byte-identical to the
//! hand-rolled sweeps they replaced — but that guarantee was only ever checked
//! by hand.  This test pins the full `experiments --timing --defenses --tiny`
//! stdout (the CI smoke invocation) against a checked-in golden file, so any
//! change to table content, formatting or experiment math shows up as a diff.
//!
//! Wall-clock durations are the only run-dependent content; the normalizer
//! replaces duration tokens with `<T>` and collapses the alignment whitespace
//! they stretch, leaving every other number pinned exactly — including the
//! `--reconstruct` gain column, whose ratios derive from matched cell seeds
//! and logical-tick decay.
//!
//! To regenerate after an intentional output change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p msa-bench --test golden_experiments
//! ```

use std::path::Path;
use std::process::Command;

/// `true` for tokens like `12ns`, `504.49µs`, `1.63ms`, `2s` — the `{:?}`
/// rendering of a `std::time::Duration`.
fn is_duration_token(token: &str) -> bool {
    for suffix in ["ns", "µs", "ms", "s"] {
        if let Some(value) = token.strip_suffix(suffix) {
            if !value.is_empty() && value.parse::<f64>().is_ok() {
                return true;
            }
        }
    }
    false
}

/// Normalizes run-dependent content: duration tokens become `<T>`, column
/// padding (which stretches with duration widths) collapses to single
/// spaces, and all-dash separator rules collapse to `---`.
fn normalize(raw: &str) -> String {
    let mut out: Vec<String> = Vec::new();
    for line in raw.lines() {
        let tokens: Vec<String> = line
            .split_whitespace()
            .map(|token| {
                if !token.is_empty() && token.chars().all(|c| c == '-') {
                    "---".to_string()
                } else if is_duration_token(token) {
                    "<T>".to_string()
                } else {
                    token.to_string()
                }
            })
            .collect();
        out.push(tokens.join(" "));
    }
    let mut joined = out.join("\n");
    joined.push('\n');
    joined
}

/// Runs the experiments binary with `args`, normalizes its stdout and pins it
/// against the golden file at `tests/golden/<golden_name>`.
fn assert_matches_golden(args: &[&str], golden_name: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs");
    assert!(
        output.status.success(),
        "experiments exited with {:?}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    let normalized = normalize(&stdout);

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden_name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &normalized).expect("golden file written");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).expect(
        "golden file exists — regenerate with UPDATE_GOLDEN=1 cargo test -p msa-bench \
         --test golden_experiments",
    );
    assert_eq!(
        normalized,
        golden,
        "experiments {} stdout drifted from the golden file; \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1",
        args.join(" ")
    );
}

#[test]
fn tiny_timing_defenses_stdout_is_pinned() {
    assert_matches_golden(
        &["--timing", "--defenses", "--tiny"],
        "experiments_tiny_timing_defenses.txt",
    );
}

#[test]
fn tiny_remanence_stdout_is_pinned_and_jobs_independent() {
    // The remanence decay table is fully deterministic — decay advances on
    // logical ticks, never wall clock, and the decay view is a pure per-cell
    // function — so the *same* golden pins the serial and the 4-worker run.
    // Any divergence between them is a determinism regression, not a
    // formatting drift.
    for jobs in ["--jobs=1", "--jobs=4"] {
        assert_matches_golden(
            &["--remanence", "--tiny", jobs],
            "experiments_tiny_remanence.txt",
        );
    }
}

#[test]
fn tiny_reconstruct_stdout_is_pinned_and_jobs_independent() {
    // Like the remanence table, the reconstruction table is fully
    // deterministic: snapshots advance on logical ticks, fusion/repair are
    // pure functions of the decayed bytes, and paired rows share their cell
    // seed.  The same golden pins the serial and the 4-worker run.
    for jobs in ["--jobs=1", "--jobs=4"] {
        assert_matches_golden(
            &["--reconstruct", "--tiny", jobs],
            "experiments_tiny_reconstruct.txt",
        );
    }
}

#[test]
fn tiny_swap_stdout_is_pinned_and_jobs_independent() {
    // The swap and CoW sweeps are fully deterministic — swap-out happens on
    // logical pre-termination ticks, slot compression is a pure function of
    // the page bytes, and CoW retention is pure allocator accounting — so
    // the same golden pins the serial and the 4-worker run.
    for jobs in ["--jobs=1", "--jobs=4"] {
        assert_matches_golden(&["--swap", "--tiny", jobs], "experiments_tiny_swap.txt");
    }
}

#[test]
fn tiny_revival_livetraffic_stdout_is_pinned() {
    assert_matches_golden(
        &["--revival", "--livetraffic", "--tiny"],
        "experiments_tiny_revival_livetraffic.txt",
    );
}

#[test]
fn tiny_fingerprint_aslr_multitenant_stdout_is_pinned() {
    assert_matches_golden(
        &["--fingerprint", "--aslr", "--multitenant", "--tiny"],
        "experiments_tiny_fingerprint_aslr_multitenant.txt",
    );
}

#[test]
fn boards_stdout_is_pinned() {
    // TAB-E always runs the two paper boards; it has no `--tiny` variant.
    assert_matches_golden(&["--boards"], "experiments_boards.txt");
}

#[test]
fn tiny_campaign_batch_tables_are_pinned() {
    // The batch header prints the worker count, so the pool size is pinned
    // with `--jobs`; the per-axis tables below it are worker-independent.
    assert_matches_golden(
        &["--campaign", "--tiny", "--jobs=2"],
        "experiments_tiny_campaign.txt",
    );
}

#[test]
fn audit_stdout_is_pinned() {
    // The `--audit` table is computed by the static analyzer, not by
    // campaigns, so it is fully deterministic and board-independent; the
    // JSON twin is pinned byte-for-byte in the analyzer crate's own golden.
    assert_matches_golden(&["--audit"], "experiments_audit.txt");
}

#[test]
fn reconstruct_bench_artifact_is_pinned() {
    // Every field of BENCH_reconstruct.json is deterministic — recovery
    // rates, gains and verdicts derive from logical-tick decay, never wall
    // clock — so the whole artifact is pinned with no masking.
    let scratch =
        std::env::temp_dir().join(format!("msa-golden-reconstruct-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir created");

    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--reconstruct", "--tiny"])
        .current_dir(&scratch)
        .output()
        .expect("experiments binary runs");
    assert!(
        output.status.success(),
        "experiments exited with {:?}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );

    let bench = std::fs::read_to_string(scratch.join("BENCH_reconstruct.json"))
        .expect("BENCH_reconstruct.json written next to the invocation");

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join("BENCH_reconstruct.schema.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &bench).expect("golden file written");
    } else {
        let golden = std::fs::read_to_string(&golden_path).expect(
            "golden file exists — regenerate with UPDATE_GOLDEN=1 cargo test -p msa-bench \
             --test golden_experiments",
        );
        assert_eq!(
            bench, golden,
            "BENCH_reconstruct.json drifted from the committed artifact; \
             if the change is intentional, regenerate with UPDATE_GOLDEN=1"
        );
    }
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn swap_bench_artifact_is_pinned_and_jobs_independent() {
    // Every field of BENCH_swap.json is deterministic (swap residency,
    // CoW retention and recovery all derive from logical-tick simulation),
    // so the whole artifact is pinned with no masking — and the same golden
    // must come back byte-identical at every worker count.
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join("BENCH_swap.schema.json");
    for jobs in ["--jobs=1", "--jobs=4"] {
        let scratch = std::env::temp_dir().join(format!(
            "msa-golden-swap-{}-{}",
            std::process::id(),
            jobs.trim_start_matches("--jobs=")
        ));
        std::fs::create_dir_all(&scratch).expect("scratch dir created");

        let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["--swap", "--tiny", jobs])
            .current_dir(&scratch)
            .output()
            .expect("experiments binary runs");
        assert!(
            output.status.success(),
            "experiments exited with {:?}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        );

        let bench = std::fs::read_to_string(scratch.join("BENCH_swap.json"))
            .expect("BENCH_swap.json written next to the invocation");

        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&golden_path, &bench).expect("golden file written");
        } else {
            let golden = std::fs::read_to_string(&golden_path).expect(
                "golden file exists — regenerate with UPDATE_GOLDEN=1 cargo test -p msa-bench \
                 --test golden_experiments",
            );
            assert_eq!(
                bench, golden,
                "BENCH_swap.json drifted from the committed artifact ({jobs}); \
                 if the change is intentional, regenerate with UPDATE_GOLDEN=1"
            );
        }
        std::fs::remove_dir_all(&scratch).ok();
    }
}

#[test]
fn normalizer_masks_only_durations_and_rules() {
    assert!(is_duration_token("12ns"));
    assert!(is_duration_token("504.49µs"));
    assert!(is_duration_token("1.63ms"));
    assert!(is_duration_token("2s"));
    assert!(!is_duration_token("frames"));
    assert!(!is_duration_token("6.5MiB"));
    assert!(!is_duration_token("100.0%"));
    assert!(!is_duration_token("s"));
    // Ratios (the `--reconstruct` gain column) are deterministic and stay
    // pinned verbatim.
    assert_eq!(
        normalize("step   wall-clock\n----  ------\n1. poll  12.3µs  1.3x  inf\n"),
        "step wall-clock\n--- ---\n1. poll <T> 1.3x inf\n"
    );
}
