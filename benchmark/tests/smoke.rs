//! Drives the built binary the way the acceptance driver does: a smoke
//! run (one set-up, three ops) of every workload, untraced and traced,
//! must be correct and print exactly the metrics `BENCHMARK.json` declares.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use std::path::Path;
use std::process::Command;

use json::Json;

const EXE: &str = env!("CARGO_BIN_EXE_ratel-e2e");

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(workload: &str, trace: bool, extra: &[&str]) -> Json {
    let output = Command::new(EXE)
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .args(extra)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{workload}: {stderr}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let result = Json::parse(stdout.lines().last().unwrap()).unwrap();
    let Json::Obj(fields) = &result else {
        panic!("{workload}: result is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {stderr}"
    );
    assert_eq!(result.get("attempted"), Some(&Json::Num(3.0)));
    assert_eq!(result.get("failed"), Some(&Json::Num(0.0)));
    result
}

fn assert_metrics_are(result: &Json, declared: &[(String, String)], what: &str) {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{what}: no metrics object");
    };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{what}: {name}"
            );
            (
                name.clone(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect();
    let sorted = |mut v: Vec<(String, String)>| {
        v.sort();
        v
    };
    assert_eq!(sorted(got), sorted(declared.to_vec()), "{what}");
}

#[test]
fn every_workload_passes_a_smoke_run_with_exactly_the_declared_metrics() {
    let doc = benchmark_json();
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    for w in doc.get("workloads").and_then(Json::as_array).unwrap() {
        let name = w.get("name").and_then(Json::as_str).unwrap();

        let untraced = smoke(name, false, &[]);
        assert_metrics_are(&untraced, &end_to_end, name);
        for (metric, _) in &end_to_end {
            let value = untraced.get("metrics").and_then(|m| m.get(metric)).unwrap();
            assert!(
                value.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                "{name}: {metric} must never be 0"
            );
        }

        let traced = smoke(name, true, &[]);
        assert_metrics_are(&traced, &per_layer, name);
        // The traced run leaves a loadable Chrome trace with one span per op.
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{name}.json"));
        let trace = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let events = trace.get("traceEvents").and_then(Json::as_array).unwrap();
        let ops = events
            .iter()
            .filter(|e| {
                let name = e.get("name").and_then(Json::as_str).unwrap();
                name.starts_with("op[")
            })
            .count();
        assert_eq!(ops, 3, "{name}: one `op[i]` span per attempted op");
        for e in events {
            let args = e.get("args").unwrap();
            let (id, parent) = (args.get("id").unwrap(), args.get("parent").unwrap());
            assert!(
                parent.as_f64().unwrap() < id.as_f64().unwrap(),
                "{name}: {e}"
            );
        }
    }
}

#[test]
fn the_unthrottled_reference_run_is_correct_too() {
    // `--no-throttle` gives the README's "same shape, unthrottled" figures.
    smoke("train-actswap", false, &["--no-throttle"]);
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result() {
    for args in [
        &[
            "--workload",
            "no-such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "train-ssd", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "train-ssd",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["compare", "only-one.json"][..],
        &[][..],
    ] {
        let output = Command::new(EXE).args(args).output().unwrap();
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
