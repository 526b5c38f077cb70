//! Smoke tests: every workload at a tiny budget, untraced and traced. Each
//! run must pass its digest and identity checks and emit every metric
//! `BENCHMARK.json` declares for its mode, with that metric's unit.

use std::process::Command;

use serde::Value;

const WORKLOADS: [&str; 3] = ["latency_sweep", "thread_sweep", "warm_fleet"];

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    serde::from_str(&text).expect("BENCHMARK.json parses")
}

fn entries(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

/// Runs one smoke run; returns the provenance line and the result line.
fn run(workload: &str, trace: u8) -> (Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_dsmt-ledger"))
        .args([
            "--smoke",
            "--workload",
            workload,
            "--seed",
            "42",
            "--seconds",
            "1",
        ])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("the benchmark runs");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., provenance, result] = lines.as_slice() else {
        panic!("{workload}: expected a provenance and a result line, got {stdout}");
    };
    (
        serde::from_str(provenance).expect("provenance is JSON"),
        serde::from_str(result).expect("result is JSON"),
    )
}

fn check(workload: &str, trace: u8, declared: &[Value]) {
    let (provenance, result) = run(workload, trace);
    let provenance = provenance.field("provenance").expect("provenance object");
    assert_eq!(
        provenance.field("pinned_digest").expect("pinned digest"),
        provenance.field("digest").expect("digest"),
        "{workload}: the smoke digest is pinned and matches"
    );
    assert_eq!(
        result.field("correct"),
        Ok(&Value::Bool(true)),
        "{workload}"
    );
    assert_eq!(result.field("failed").and_then(Value::as_u64), Ok(0));
    assert!(
        result
            .field("attempted")
            .and_then(Value::as_u64)
            .expect("attempted")
            > 0
    );
    let Ok(Value::Object(metrics)) = result.field("metrics") else {
        panic!("{workload}: metrics is not an object");
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let declared_names: Vec<&str> = declared
        .iter()
        .map(|d| d.field("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(names.len(), declared_names.len(), "{workload}: {names:?}");
    for d in declared {
        let name = d.field("name").and_then(Value::as_str).expect("name");
        let unit = d.field("unit").and_then(Value::as_str).expect("unit");
        let metric = result
            .field("metrics")
            .and_then(|m| m.field(name))
            .unwrap_or_else(|_| panic!("{workload} trace={trace} lacks {name}"));
        assert_eq!(
            metric.field("unit").and_then(Value::as_str),
            Ok(unit),
            "{name}"
        );
        let value = metric
            .field("value")
            .and_then(Value::as_f64)
            .expect("value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
}

#[test]
fn every_workload_passes_its_checks_and_emits_every_end_to_end_metric() {
    let bench = benchmark_json();
    let declared = entries(bench.field("end_to_end").expect("end_to_end"));
    for workload in WORKLOADS {
        check(workload, 0, declared);
    }
}

#[test]
fn every_workload_passes_its_checks_and_emits_every_per_layer_metric() {
    let bench = benchmark_json();
    let declared = entries(bench.field("per_layer").expect("per_layer"));
    for workload in WORKLOADS {
        check(workload, 1, declared);
    }
}

#[test]
fn workloads_named_in_benchmark_json_are_the_ones_the_benchmark_runs() {
    let bench = benchmark_json();
    let names: Vec<&str> = entries(bench.field("workloads").expect("workloads"))
        .iter()
        .map(|w| w.field("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"][..],
        &["--workload", "warm_fleet", "--trace", "2"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dsmt-ledger"))
            .args(args)
            .output()
            .expect("the benchmark runs");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
