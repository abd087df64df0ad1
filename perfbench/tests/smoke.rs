//! Smoke run of every workload at minimal length, untraced and traced: each
//! metric `BENCHMARK.json` names must be printed with its unit, and every
//! output must match its pins.

use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &text[start..start + text[start..].find(']').expect("section end")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = &entry[..entry.find('"').expect("name end")];
            let unit_at = entry.find("\"unit\": \"").expect("unit") + "\"unit\": \"".len();
            let unit = &entry[unit_at..unit_at + entry[unit_at..].find('"').expect("unit end")];
            (name.to_string(), unit.to_string())
        })
        .collect()
}

/// Workload names declared in `BENCHMARK.json`.
fn workloads() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find("\"workloads\"").expect("workloads");
    let body = &text[start..start + text[start..].find(']').expect("workloads end")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| entry[..entry.find('"').expect("name end")].to_string())
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{workload}: {stderr}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: {stdout}");
    assert!(lines[lines.len() - 2].starts_with("{\"host\": {"));
    lines[lines.len() - 1].to_string()
}

#[test]
fn every_workload_prints_every_metric_and_matches_its_pins() {
    let sections = [declared("end_to_end"), declared("per_layer")];
    assert!(sections.iter().all(|s| !s.is_empty()));
    assert!(sections[0]
        .iter()
        .any(|(name, unit)| name == "setup_s" && unit == "s"));
    let names = workloads();
    assert_eq!(names.len(), 4);
    for workload in &names {
        for (trace, metrics) in sections.iter().enumerate() {
            let result = run(workload, trace as u8);
            assert!(
                result.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload} trace {trace}: {result}"
            );
            assert!(result.contains("\"failed\": 0,"), "{workload}: {result}");
            for (name, unit) in metrics {
                let needle = format!("\"{name}\": {{\"value\": ");
                let at = result
                    .find(&needle)
                    .unwrap_or_else(|| panic!("{workload} trace {trace}: no {name}"));
                let rest = &result[at + needle.len()..];
                let entry = &rest[..rest.find('}').expect("metric end")];
                let value: f64 = entry[..entry.find(',').expect("value end")]
                    .parse()
                    .expect("numeric value");
                assert!(value.is_finite());
                assert!(
                    entry.ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{workload}: {name} unit"
                );
            }
        }
    }
}

#[test]
fn unknown_workloads_and_unpinned_campaign_seeds_are_refused() {
    let bench = env!("CARGO_BIN_EXE_perfbench");
    let status = Command::new(bench)
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .expect("benchmark runs");
    assert_eq!(status.status.code(), Some(2));
    assert!(status.stdout.is_empty());
    let status = Command::new(bench)
        .args(["--workload", "zoo-attack", "--campaign-seed", "1"])
        .output()
        .expect("benchmark runs");
    assert_eq!(status.status.code(), Some(2));
    assert!(status.stdout.is_empty());
}
