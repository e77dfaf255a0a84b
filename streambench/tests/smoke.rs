//! Runs every workload at smoke scale, untraced and traced, and checks
//! that each run passes its output checks and prints exactly the metrics
//! BENCHMARK.json declares.

use std::path::Path;
use std::process::Command;

/// The `"name": "..."` values of one array in BENCHMARK.json.
fn declared(key: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

/// Runs one smoke run; returns the metric names of its JSON line.
fn run(workload: &str, trace: bool) -> Vec<String> {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_streambench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(&dir)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stderr}"
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0,"), "{last}");
    assert!(!last.contains("null"), "every metric measured: {last}");
    // Each name is the last quoted string before a `{"value"`.
    let metrics = &last[last.find("\"metrics\": {").unwrap() + 12..];
    let mut pieces: Vec<&str> = metrics.split("{\"value\"").collect();
    pieces.pop();
    pieces
        .iter()
        .map(|s| s.rsplit('"').nth(1).unwrap().to_string())
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_prints_the_declared_metrics() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(end_to_end.len(), 7);
    for workload in ["wide-c2", "cli-rules", "gaps-c1"] {
        assert_eq!(run(workload, false), end_to_end, "{workload}");
        assert_eq!(run(workload, true), per_layer, "{workload} traced");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--trace", "2"], &["--seed"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_streambench"))
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}
