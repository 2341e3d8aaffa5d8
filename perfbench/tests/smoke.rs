//! `--quick` runs every workload, untraced and traced, and reports every
//! metric `BENCHMARK.json` names, with the unit it names, both as a text
//! line and in the result line.

use std::path::Path;
use std::process::Command;

use solero_perfbench::json::{self, Json};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn spec_metrics(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec =
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let field = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::str)
            .expect("string field")
            .to_string()
    };
    let entries = spec
        .get(section)
        .and_then(Json::arr)
        .expect("section present");
    entries
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn check(trace: bool, section: &str) {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{trace}.jsonl"));
    let run = Command::new(env!("CARGO_BIN_EXE_solero-perfbench"))
        .args([
            "--quick",
            "--seed",
            "7",
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("benchmark runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "exit {}: {stderr}", run.status);
    assert!(
        std::fs::metadata(&out).is_ok_and(|m| m.len() > 0),
        "no record written"
    );
    let stdout = String::from_utf8(run.stdout).expect("utf-8 output");
    let result =
        json::parse(stdout.lines().last().expect("a result line")).expect("JSON result line");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::num), Some(0.0));
    assert!(result
        .get("attempted")
        .and_then(Json::num)
        .is_some_and(|n| n >= 1.0));
    let reported = result.get("metrics").and_then(Json::obj).expect("metrics");
    let metrics = spec_metrics(section);
    assert_eq!(
        reported.len(),
        4 * metrics.len(),
        "exactly the {section} metrics, per workload"
    );
    for workload in ["map-read", "map-mixed", "store-zipf", "store-churn"] {
        for (name, unit) in &metrics {
            let line = stdout
                .lines()
                .find(|l| l.starts_with(&format!("{workload} {name} ")))
                .unwrap_or_else(|| panic!("{workload} did not print {name}"));
            assert!(
                line.ends_with(&format!(" {unit}")),
                "{line}: want unit {unit}"
            );
            let m = &reported[&format!("{workload}/{name}")];
            assert_eq!(m.get("unit").and_then(Json::str), Some(unit.as_str()));
            assert!(
                m.get("value")
                    .and_then(Json::num)
                    .is_some_and(f64::is_finite),
                "{workload} {name}"
            );
        }
    }
}

#[test]
fn quick_run_reports_every_end_to_end_metric() {
    check(false, "end_to_end");
}

#[test]
fn quick_traced_run_reports_every_per_layer_metric() {
    check(true, "per_layer");
}
