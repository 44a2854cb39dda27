//! The printed result matches `BENCHMARK.json`: every workload, in each
//! mode, prints exactly the metrics named there for that mode, each with
//! its unit, plus the attempted and failed counts.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn benchmark() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(benchmark: &Value, section: &str) -> Vec<(String, String)> {
    benchmark[section]
        .as_array()
        .expect("a metric list")
        .iter()
        .map(|metric| {
            (
                metric["name"].as_str().unwrap().to_owned(),
                metric["unit"].as_str().unwrap().to_owned(),
            )
        })
        .collect()
}

/// Runs one short benchmark and returns its last stdout line, parsed.
fn result(workload: &str, trace: u8) -> Value {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}"));
    std::fs::create_dir_all(&scratch).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&scratch)
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("the benchmark runs");
    assert!(output.status.success(), "{workload}: {output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let last = stdout.lines().last().expect("some output");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"))
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let benchmark = benchmark();
    for workload in benchmark["workloads"].as_array().unwrap() {
        let workload = workload["name"].as_str().unwrap();
        for (trace, section) in [(0u8, "end_to_end"), (1u8, "per_layer")] {
            let printed = result(workload, trace);
            let keys: Vec<&str> = printed
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{workload}"
            );
            assert_eq!(printed["correct"].as_bool(), Some(true), "{workload}");
            let attempted = printed["attempted"].as_u64().expect("attempted is a count");
            assert!(attempted >= 1, "{workload}");
            assert_eq!(printed["failed"].as_u64(), Some(0), "{workload}");

            let metrics = printed["metrics"].as_object().unwrap();
            let want = declared(&benchmark, section);
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, metric)| {
                    assert!(metric["value"].as_f64().is_some(), "{workload} {name}");
                    (name.clone(), metric["unit"].as_str().unwrap().to_owned())
                })
                .collect();
            for metric in &want {
                assert!(got.contains(metric), "{workload} does not print {metric:?}");
            }
            for metric in &got {
                assert!(
                    want.contains(metric),
                    "{workload} prints undeclared {metric:?}"
                );
            }
        }
    }
}
