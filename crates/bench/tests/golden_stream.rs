//! Golden pin for the streaming campaign surface.
//!
//! `experiments --campaign --tiny --stream` is the machine-readable face of
//! the streaming engine: one NDJSON progress line per folded cell group on
//! stdout, plus `BENCH_campaign.json` written to the working directory.
//! Both are consumed by CI, so their *schema* is a contract: field names,
//! field order and every deterministic value are pinned here byte-for-byte.
//! Only genuinely run-dependent numbers — residency snapshots and the
//! progress lines' wall-clock milliseconds — are masked to `<N>`.
//!
//! To regenerate after an intentional schema change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p msa-bench --test golden_stream
//! ```
//!
//! (`.github/workflows/ci.yml` re-checks `BENCH_campaign.json` against the
//! same committed schema file with the same masking.)

use std::path::Path;
use std::process::Command;

/// JSON keys whose values depend on wall clock or scheduling, never on the
/// science.  Everything else in the NDJSON lines and the bench file is
/// deterministic and stays pinned exactly.
const VOLATILE_KEYS: &[&str] = &["resident_cells", "peak_resident_cells", "elapsed_ms"];

/// Replaces the numeric value after every occurrence of `"<key>":` with
/// `<N>`, for each volatile key.
fn mask_volatile(raw: &str) -> String {
    let mut masked = raw.to_string();
    for key in VOLATILE_KEYS {
        let pattern = format!("\"{key}\":");
        let mut out = String::new();
        let mut rest = masked.as_str();
        while let Some(pos) = rest.find(&pattern) {
            let after = pos + pattern.len();
            out.push_str(&rest[..after]);
            out.push_str("<N>");
            let tail = &rest[after..];
            let end = tail
                .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
                .unwrap_or(tail.len());
            rest = &tail[end..];
        }
        out.push_str(rest);
        masked = out;
    }
    masked
}

/// Masks the run-dependent number of the human summary line (`peak
/// resident cells N`) while keeping the deterministic recovery percentage
/// pinned.
fn mask_summary_line(line: &str) -> String {
    match line.strip_prefix("mean pixel recovery ") {
        Some(rest) => {
            let recovery = rest.split(',').next().unwrap_or("");
            format!("mean pixel recovery {recovery}, peak resident cells <N>")
        }
        None => line.to_string(),
    }
}

fn normalize(raw: &str) -> String {
    let mut out = String::new();
    for line in raw.lines() {
        out.push_str(&mask_summary_line(&mask_volatile(line)));
        out.push('\n');
    }
    out
}

/// Compares `normalized` against `tests/golden/<golden_name>`, regenerating
/// under `UPDATE_GOLDEN=1`.
fn assert_matches_golden(normalized: &str, golden_name: &str) {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden_name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, normalized).expect("golden file written");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).expect(
        "golden file exists — regenerate with UPDATE_GOLDEN=1 cargo test -p msa-bench \
         --test golden_stream",
    );
    assert_eq!(
        normalized, golden,
        "streaming output drifted from {golden_name}; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn streaming_ndjson_and_bench_schema_are_pinned() {
    // The binary writes BENCH_campaign.json into its working directory, so
    // run it from a scratch directory instead of polluting the repo.
    let scratch = std::env::temp_dir().join(format!("msa-golden-stream-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir created");

    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--campaign", "--tiny", "--stream", "--jobs=2"])
        .current_dir(&scratch)
        .output()
        .expect("experiments binary runs");
    assert!(
        output.status.success(),
        "experiments exited with {:?}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );

    // NDJSON progress stream + summary lines, volatile numbers masked.
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    assert_matches_golden(&normalize(&stdout), "experiments_tiny_stream.txt");

    // The machine-readable bench artifact, same masking, same schema file
    // CI diffs against.
    let bench = std::fs::read_to_string(scratch.join("BENCH_campaign.json"))
        .expect("BENCH_campaign.json written next to the invocation");
    assert_matches_golden(&normalize(&bench), "BENCH_campaign.schema.json");

    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn masking_touches_only_volatile_fields() {
    let masked = mask_volatile(
        r#"{"completed":8,"resident_cells":32,"peak_resident_cells":64,"elapsed_ms":1675}"#,
    );
    assert_eq!(
        masked,
        r#"{"completed":8,"resident_cells":<N>,"peak_resident_cells":<N>,"elapsed_ms":<N>}"#
    );
    assert_eq!(
        mask_summary_line("mean pixel recovery 66.7%, peak resident cells 64"),
        "mean pixel recovery 66.7%, peak resident cells <N>"
    );
    // Non-volatile content is untouched.
    assert_eq!(mask_volatile(r#"{"cells":16}"#), r#"{"cells":16}"#);
}
