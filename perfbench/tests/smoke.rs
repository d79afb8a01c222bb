//! Each workload passes a one-second run, traced and untraced, through the
//! command the benchmark is run with (`python3 perfbench/run.py`). The runs
//! build into their own target directory, so the first one takes a while.

use std::path::Path;
use std::process::Command;

use ksa_server::json::{parse, Value};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench/ has a parent")
}

/// The `name`s of one metric list in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let json = parse(text.as_bytes()).expect("BENCHMARK.json parses");
    match json.get(key) {
        Some(Value::Arr(items)) => items
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect(),
        _ => panic!("BENCHMARK.json lacks `{key}`"),
    }
}

fn smoke(workload: &str, trace: &str) -> Value {
    let out = Command::new("python3")
        .current_dir(root())
        .args(["perfbench/run.py", "--workload", workload, "--seed", "7"])
        .args(["--seconds", "1", "--trace", trace])
        .env(
            "CARGO_TARGET_DIR",
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("target")
                .join("smoke"),
        )
        .output()
        .expect("python3 runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse(last.as_bytes()).expect("the result line is JSON")
}

#[test]
fn each_workload_passes_a_smoke_run() {
    for workload in listed("workloads") {
        for (trace, metrics) in [("0", listed("end_to_end")), ("1", listed("per_layer"))] {
            let result = smoke(&workload, trace);
            let context = format!("{workload} --trace {trace}: {}", result.to_json());
            assert_eq!(
                result.get("correct").and_then(Value::as_bool),
                Some(true),
                "{context}"
            );
            assert_eq!(
                result.get("failed").and_then(Value::as_i64),
                Some(0),
                "{context}"
            );
            assert!(
                result.get("attempted").and_then(Value::as_i64) >= Some(1),
                "{context}"
            );
            let Some(Value::Obj(printed)) = result.get("metrics") else {
                panic!("{context}: no metrics object");
            };
            let names: Vec<&str> = printed.iter().map(|(name, _)| name.as_str()).collect();
            assert_eq!(names, metrics, "{context}");
        }
    }
}
