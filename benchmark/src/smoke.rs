//! A short run of everything, held against `BENCHMARK.json`.

use crate::json::Json;
use crate::measure::{self, Windows};
use crate::report::{Better, END_TO_END};
use crate::rig;
use crate::workload::Workload;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|row| {
            row.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn gates_and_workloads_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(
        names(&doc, "workloads"),
        Workload::ALL.map(|w| w.name().to_string())
    );
    let rows = doc
        .get("end_to_end")
        .map(Json::as_array)
        .unwrap_or_default();
    assert_eq!(rows.len(), END_TO_END.len());
    for (row, gate) in rows.iter().zip(END_TO_END) {
        let field = |key: &str| row.get(key).and_then(Json::as_str).unwrap_or_default();
        assert_eq!(field("name"), gate.name);
        assert_eq!(field("unit"), gate.unit, "{}", gate.name);
        let better = match gate.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        assert_eq!(field("better"), better, "{}", gate.name);
        assert_eq!(
            row.get("bound").and_then(Json::as_f64),
            Some(gate.bound),
            "{}",
            gate.name
        );
    }
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(crate::DEFAULT_SECONDS as f64)
    );
}

/// One-second windows of all four workloads, tracing off and on: the
/// output check passes and every metric `BENCHMARK.json` lists is emitted
/// exactly once per workload, and nothing else is.
#[test]
fn smoke_run_emits_every_listed_metric_once_and_checks_out() {
    let doc = benchmark_json();
    let windows = Windows::SMOKE;
    let scratch = rig::scratch_root();
    for workload in Workload::ALL {
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = if traced {
                measure::per_layer(workload, 7, windows, &scratch)
            } else {
                measure::end_to_end(workload, 7, windows, &scratch)
            }
            .unwrap_or_else(|e| panic!("{} {key}: {e}", workload.name()));
            assert!(
                outcome.correct(),
                "{} {key}: {:?}",
                workload.name(),
                outcome.failures
            );
            assert!(outcome.attempted >= 1);
            let mut emitted: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
            let mut listed = names(&doc, key);
            emitted.sort_unstable();
            listed.sort_unstable();
            assert_eq!(emitted, listed, "{} {key}", workload.name());
            for metric in &outcome.metrics {
                let row = doc
                    .get(key)
                    .map(Json::as_array)
                    .unwrap_or_default()
                    .iter()
                    .find(|row| row.get("name").and_then(Json::as_str) == Some(metric.name));
                let unit = row.and_then(|row| row.get("unit")).and_then(Json::as_str);
                assert_eq!(Some(metric.unit), unit, "{}", metric.name);
                assert!(metric.value.is_finite(), "{}", metric.name);
            }
            // The result line is the contract's: four keys, the metrics.
            let line = Json::parse(&outcome.result_line()).expect("result line parses");
            let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("metrics").unwrap().entries().len(), listed.len());
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}
