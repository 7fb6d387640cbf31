//! Self-test of the benchmark at test scale: every metric `BENCHMARK.json`
//! declares prints with its unit on every workload. The tests that prove
//! the correctness checks can fail sit next to the checks, in `figures`
//! and `service`.

use stride_workloads::Scale;

use crate::report::Report;
use crate::{figures, service, Opts};

/// `repro --scale test` output: the golden file of a test-scale pass.
pub const TEST_GOLDEN: &[u8] = include_bytes!("../testdata/repro_test_scale.txt");

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

pub fn report(workload: &str, trace: bool) -> Report {
    Report::new(&opts(workload, trace))
}

fn opts(workload: &str, trace: bool) -> Opts {
    Opts {
        workload: workload.to_string(),
        seed: 7,
        // One test-scale figure pass; long enough for the service
        // workloads to pass their RSS reading.
        seconds: if workload == "figures" { 0.1 } else { 2.0 },
        trace,
    }
}

/// Runs `workload` at test scale and returns what the benchmark prints.
fn run(workload: &str, trace: bool) -> String {
    let opts = opts(workload, trace);
    let mut report = Report::new(&opts);
    let result = match workload {
        "figures" => figures::measure(&opts, Scale::Test, TEST_GOLDEN, &mut report),
        _ => service::measure(&opts, 100, &mut report),
    };
    result.expect("the workload runs");
    report.finish()
}

/// The text after `"key": ` in `json`, up to the next `,` or `}`.
fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let at = json.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &json[at..];
    Some(rest[..rest.find([',', '}'])?].trim())
}

/// `(name, unit)` of every metric a section of `BENCHMARK.json` declares.
fn declared(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK.find(&format!("\"{section}\"")).expect("section");
    let body = &BENCHMARK[start..];
    let body = &body[..body.find(']').expect("section end")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = &entry[..entry.find('"').expect("name end")];
            let unit = field(entry, "unit").expect("unit").trim_matches('"');
            (name.to_string(), unit.to_string())
        })
        .collect()
}

fn assert_metrics(stdout: &str, section: &str) {
    let result = stdout.lines().last().expect("some output");
    assert!(result.starts_with("{\"correct\": "), "last line: {result}");
    assert_eq!(field(result, "correct"), Some("true"), "{stdout}");
    let metrics = &result[result.find("\"metrics\"").expect("metrics")..];
    let names = declared(section);
    assert!(!names.is_empty());
    for (name, unit) in &names {
        let at = metrics
            .find(&format!("\"{name}\": {{"))
            .unwrap_or_else(|| panic!("{name} missing from {result}"));
        let entry = &metrics[at + name.len() + 4..];
        let value = field(entry, "value").expect("value");
        assert!(
            value.parse::<f64>().is_ok_and(f64::is_finite),
            "{name} = {value}"
        );
        assert_eq!(
            field(entry, "unit"),
            Some(format!("\"{unit}\"").as_str()),
            "{name}"
        );
        assert!(
            stdout.contains(&format!("metric {name} = ")),
            "{name} has no summary line"
        );
    }
    assert_eq!(metrics.matches("\"unit\"").count(), names.len());
}

#[test]
fn every_end_to_end_metric_prints_with_its_unit() {
    for workload in ["figures", "serve", "cluster"] {
        assert_metrics(&run(workload, false), "end_to_end");
    }
}

#[test]
fn every_per_layer_metric_prints_with_its_unit() {
    for workload in ["figures", "serve", "cluster"] {
        assert_metrics(&run(workload, true), "per_layer");
    }
}
