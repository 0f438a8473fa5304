//! Self-test of the benchmark: every workload at smoke size, checked
//! against the metric lists in `BENCHMARK.json`, the traced run's span
//! file, and a label corrupted inside the harness.

use dbscan_server::json::{parse, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("package has a parent")
        .to_path_buf()
}

fn spec() -> Value {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect()
}

/// Runs one smoke-sized workload and returns its result line and stdout.
fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> (Value, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root())
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
        ])
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    (parse(last).expect("result line is JSON"), stdout)
}

fn count(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).expect("whole number")
}

fn assert_metrics(result: &Value, wanted: &[(String, String)], what: &str) {
    let metrics = match result.get("metrics") {
        Some(Value::Obj(members)) => members,
        _ => panic!("{what}: no metrics object"),
    };
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = wanted.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got, want, "{what}: metric names");
    for ((name, v), (_, unit)) in metrics.iter().zip(wanted) {
        assert!(
            v.get("value").and_then(Value::as_f64).is_some(),
            "{what}: {name} value"
        );
        assert_eq!(
            v.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{what}: {name}"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let spec = spec();
    let e2e = names(&spec, "end_to_end");
    let layers = names(&spec, "per_layer");
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads.len(), 4);
    for (k, w) in workloads.iter().enumerate() {
        for trace in [false, true] {
            let (r, stdout) = run(w, 100 + k as u64, trace, &[]);
            let what = format!("{w} trace={trace}");
            assert_eq!(
                r.get("correct").and_then(Value::as_bool),
                Some(true),
                "{what}\n{stdout}"
            );
            assert_eq!(count(&r, "failed"), 0, "{what}");
            assert!(count(&r, "attempted") >= 1, "{what}");
            assert_metrics(&r, if trace { &layers } else { &e2e }, &what);
            if !trace {
                for (name, _) in &e2e {
                    let v = r
                        .get("metrics")
                        .and_then(|m| m.get(name))
                        .and_then(|m| m.get("value"));
                    assert!(
                        v.and_then(Value::as_f64).unwrap() > 0.0,
                        "{what}: {name} is 0"
                    );
                }
            }
        }
    }
}

fn spans_of(workload: &str, seed: u64) -> Vec<Value> {
    let path = root().join(format!(".perfbench/trace-{workload}-{seed}.json"));
    let text = std::fs::read_to_string(&path).expect("span file written");
    let doc = parse(&text).expect("span file parses");
    doc.get("spans")
        .and_then(Value::as_arr)
        .expect("spans")
        .to_vec()
}

fn field(s: &Value, k: &str) -> u64 {
    s.get(k).and_then(Value::as_u64).expect("span field")
}

fn text_field<'a>(s: &'a Value, k: &str) -> &'a str {
    s.get(k).and_then(Value::as_str).expect("span field")
}

/// Parent links resolve to a span of the same request.
fn assert_linked(spans: &[Value]) {
    for s in spans {
        let parent = field(s, "parent");
        if parent > 0 {
            let p = &spans[parent as usize - 1];
            assert_eq!(field(p, "id"), parent);
            assert_eq!(
                field(p, "req"),
                field(s, "req"),
                "child shares its parent's request id"
            );
        }
    }
}

#[test]
fn traced_run_writes_one_linked_span_per_layer_call() {
    let (r, _) = run("batch-approx", 7, true, &[]);
    let spans = spans_of("batch-approx", 7);
    assert_eq!(
        spans.len() as f64,
        r.get("metrics")
            .unwrap()
            .get("trace.spans")
            .unwrap()
            .get("value")
            .unwrap()
            .as_f64()
            .unwrap()
    );
    assert_linked(&spans);
    let roots: Vec<&Value> = spans
        .iter()
        .filter(|s| text_field(s, "call") == "iteration")
        .collect();
    assert!(!roots.is_empty());
    for root in &roots {
        let id = field(root, "id");
        let calls: Vec<&str> = spans
            .iter()
            .filter(|s| field(s, "parent") == id)
            .map(|s| text_field(s, "call"))
            .collect();
        // One span per layer call in each iteration, in call order.
        assert_eq!(
            calls,
            [
                "GridIndex::build",
                "CoreCells::build",
                "try_grid_exact_from_cells_ctl",
                "try_rho_approx_from_cells_ctl",
                "counter_sweep",
                "rho_approx",
                "rho_approx_par_instrumented",
            ]
        );
        let sweep = spans
            .iter()
            .find(|s| field(s, "parent") == id && text_field(s, "call") == "counter_sweep")
            .unwrap();
        let builds = spans
            .iter()
            .filter(|s| field(s, "parent") == field(sweep, "id"))
            .inspect(|s| assert_eq!(text_field(s, "layer"), "index::counter"))
            .count();
        assert!(builds > 0, "one counter build span per core cell");
    }

    run("service-small", 8, true, &[]);
    let spans = spans_of("service-small", 8);
    assert_linked(&spans);
    let requests: Vec<&Value> = spans
        .iter()
        .filter(|s| text_field(s, "call") == "request")
        .collect();
    assert!(!requests.is_empty());
    for req in requests {
        let children: Vec<&str> = spans
            .iter()
            .filter(|s| field(s, "parent") == field(req, "id"))
            .map(|s| text_field(s, "call"))
            .collect();
        assert_eq!(children, ["submit", "result"]);
    }
}

#[test]
fn a_label_corrupted_in_the_harness_is_counted_as_failed() {
    for (w, seed) in [("batch-exact", 11), ("service-small", 12)] {
        let (r, _) = run(w, seed, false, &["--corrupt-labels"]);
        assert_eq!(
            r.get("correct").and_then(Value::as_bool),
            Some(false),
            "{w}"
        );
        assert!(count(&r, "failed") >= 1, "{w}");
        let ok = r
            .get("metrics")
            .unwrap()
            .get("ok_ratio")
            .unwrap()
            .get("value")
            .unwrap();
        assert!(
            ok.as_f64().unwrap() < 1.0,
            "{w}: ok_ratio reflects the failure"
        );
    }
}
