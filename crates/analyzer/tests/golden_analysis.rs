//! Golden pin of the `msa-analyzer-v1` report.
//!
//! `ANALYSIS.json` is a shipped artifact: CI regenerates it with
//! `msa-analyze` and diffs it byte-for-byte against the copy pinned here, so
//! any change to the audit matrix, the transfer rules or the serialization
//! shows up as a reviewable diff.  The report is fully deterministic — no
//! normalization is applied.
//!
//! To regenerate after an intentional verdict or format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p msa-analyzer --test golden_analysis
//! ```

use std::path::Path;

use msa_analyzer::AuditReport;

fn golden_path() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/analysis.json")
}

#[test]
fn analysis_json_is_pinned() {
    let json = AuditReport::generate().to_json();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &json).expect("golden file written");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect(
        "golden file exists — regenerate with UPDATE_GOLDEN=1 cargo test -p msa-analyzer \
         --test golden_analysis",
    );
    assert_eq!(
        json, golden,
        "ANALYSIS.json drifted from the golden file; if the verdict change is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn msa_analyze_binary_emits_the_pinned_report() {
    // The binary writes the same bytes the library serializes: run it into a
    // temp path and compare against the golden (skipping under
    // UPDATE_GOLDEN, when the golden is being rewritten by the test above).
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return;
    }
    let out = std::env::temp_dir().join("msa-analyze-golden-check.json");
    let out_arg = format!("--out={}", out.display());
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_msa-analyze"))
        .arg(&out_arg)
        .output()
        .expect("msa-analyze runs");
    assert!(
        output.status.success(),
        "msa-analyze exited with {:?}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let written = std::fs::read_to_string(&out).expect("report written");
    let golden = std::fs::read_to_string(golden_path()).expect("golden file exists");
    assert_eq!(written, golden, "binary output drifted from the golden");
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    assert!(stdout.contains("=== ANALYZE:"));
    assert!(stdout.contains("48 cells:"));
    let _ = std::fs::remove_file(&out);
}
