//! A short pass of every workload in both modes through the real
//! binary: the result line has the contract's shape and carries exactly
//! the metric names `BENCHMARK.json` declares.
//!
//! Run with `cargo test --release --offline --manifest-path
//! perfbench/Cargo.toml` (a debug build spins the same cores ~10x
//! longer per packet and overloads `high_l3fwd`).

use metronome_telemetry::Json;
use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn declared(spec: &Json, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{list}'"))
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("run the bench binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr),
    )
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    // The repo's own reader parses the declaration.
    let spec = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        workloads,
        ["low_l3fwd", "high_l3fwd", "mq16_async", "ramp_ipsec"]
    );

    // One test, run in sequence: two runs at once would oversubscribe the
    // host and measure its scheduler.
    for workload in workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, text) = bench(&[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "0.5",
                "--trace",
                trace,
            ]);
            assert!(ok, "{workload} --trace {trace} failed:\n{text}");
            let last = text.lines().last().unwrap();
            let result = Json::parse(last).unwrap_or_else(|e| panic!("{e}: {last}"));
            let keys: Vec<&str> = result
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct").unwrap().as_bool(), Some(true));
            assert!(result.get("attempted").unwrap().as_u64().unwrap() >= 1);

            let emitted: Vec<(String, String)> = result
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap()
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                    (
                        name.clone(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            assert_eq!(emitted, declared(&spec, list), "{workload} --trace {trace}");
            for (name, _) in &emitted {
                assert!(
                    !name.is_empty()
                        && name
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "metric name '{name}'"
                );
            }
        }
    }
}

#[test]
fn list_prints_every_declared_name_and_bad_arguments_are_refused() {
    let spec = Json::parse(BENCHMARK_JSON).unwrap();
    let (ok, text) = bench(&["--list"]);
    assert!(ok, "{text}");
    for list in ["end_to_end", "per_layer"] {
        for (name, unit) in declared(&spec, list) {
            assert!(
                text.contains(&name) && text.contains(&unit),
                "{name} {unit}"
            );
        }
    }

    let (ok, text) = bench(&["--workload", "no_such_workload"]);
    assert!(!ok && text.contains("unknown workload"), "{text}");
    let (ok, _) = bench(&["--frobnicate"]);
    assert!(!ok);
}
