//! Miniatures of the three workloads — `city_round` at 2k × 50,
//! `paper_sweep` at one rep, `serve_mixed` with ~1 s legs — run through
//! the same code as the full benchmark: every declared metric must be
//! reported with its unit, and every correctness check must pass.

use std::path::PathBuf;

use paydemand_obs::{parse_json, JsonValue};
use paydemand_perfbench::{
    declared, run_workload, RunConfig, Scale, BENCHMARKED, END_TO_END, PER_LAYER,
};

fn config(name: &str, trace: bool) -> RunConfig {
    RunConfig {
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Mini,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}")),
    }
}

fn assert_reports(workload: &str, trace: bool) {
    let name = format!("{workload}-{}", u8::from(trace));
    let outcome = run_workload(workload, &config(&name, trace))
        .unwrap_or_else(|e| panic!("{workload} (trace {trace}): {e}"));
    assert!(outcome.attempted > 0);
    assert_eq!(outcome.failed, 0, "{workload}: no operation may fail");
    let declared = declared(workload, trace);
    for (metric, unit) in &declared {
        let (value, got_unit) =
            outcome.metrics.get(*metric).unwrap_or_else(|| panic!("{workload}: {metric} missing"));
        assert_eq!(got_unit, unit, "{workload}: {metric} unit");
        assert!(value.is_finite(), "{workload}: {metric} = {value}");
        if !trace {
            assert!(*value > 0.0, "{workload}: {metric} = {value} must be positive");
        }
    }
    let line = parse_json(&outcome.result_line(workload, trace)).expect("the result line is JSON");
    assert_eq!(line.get("correct"), Some(&JsonValue::Bool(true)));
    let metrics = line.get("metrics").expect("metrics object");
    assert_eq!(metrics.as_object().map(|m| m.len()), Some(declared.len()));
    for (metric, unit) in &declared {
        let entry = metrics.get(metric).unwrap_or_else(|| panic!("{metric} not printed"));
        assert_eq!(entry.get("unit").and_then(|v| v.as_str()), Some(*unit));
        assert!(entry.get("value").and_then(|v| v.as_f64()).is_some());
    }
}

#[test]
fn paper_sweep_miniature_reports_every_metric() {
    assert_reports("paper_sweep", false);
    assert_reports("paper_sweep", true);
}

#[test]
fn city_round_miniature_reports_every_metric() {
    assert_reports("city_round", false);
    assert_reports("city_round", true);
}

#[test]
fn serve_mixed_miniature_reports_every_metric() {
    assert_reports("serve_mixed", false);
    assert_reports("serve_mixed", true);
}

#[test]
fn benchmark_json_declares_exactly_these_workloads_and_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, Option<String>)> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("{key} array"))
            .iter()
            .map(|entry| {
                (
                    entry.get("name").and_then(|v| v.as_str()).expect("name").to_owned(),
                    entry.get("unit").and_then(|v| v.as_str()).map(str::to_owned),
                )
            })
            .collect()
    };
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, BENCHMARKED);
    let declared = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        list.iter().map(|(n, u)| ((*n).to_owned(), Some((*u).to_owned()))).collect()
    };
    assert_eq!(names("end_to_end"), declared(&END_TO_END));
    assert_eq!(names("per_layer"), declared(&PER_LAYER));
}
