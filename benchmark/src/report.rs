//! Metric names, bounds and the shapes results are printed in.

use crate::json::Json;
use crate::workload::Workload;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A gated end-to-end metric: `BENCHMARK.json` carries the same rows,
/// and a test holds the two together.
pub struct Gate {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: &[Gate] = &[
    Gate {
        name: "refresh_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    Gate {
        name: "commit_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    Gate {
        name: "commits_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    Gate {
        name: "wire_bytes_per_commit",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.02,
    },
    Gate {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value, where it is a statistic of a series.
    pub samples: Option<usize>,
    /// Percentile label of a tail metric.
    pub percentile: Option<f64>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self {
            name,
            unit,
            value,
            samples: None,
            percentile: None,
        }
    }

    /// A metric of [`END_TO_END`], with the unit fixed there.
    pub fn gated(name: &'static str, value: f64) -> Self {
        let gate = END_TO_END
            .iter()
            .find(|g| g.name == name)
            .expect("gated metrics are listed in END_TO_END");
        Self::new(name, gate.unit, value)
    }

    pub fn with_samples(mut self, samples: usize) -> Self {
        self.samples = Some(samples);
        self
    }

    pub fn with_percentile(mut self, percentile: f64) -> Self {
        self.percentile = Some(percentile);
        self
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("value", Json::Num(self.value)),
            ("unit", Json::str(self.unit)),
        ];
        if let Some(n) = self.samples {
            pairs.push(("samples", Json::Num(n as f64)));
        }
        if let Some(p) = self.percentile {
            pairs.push(("percentile", Json::Num(p)));
        }
        Json::obj(pairs)
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| (m.name, m.to_json())))
}

/// What one run of one workload produced.
pub struct Outcome {
    pub workload: Workload,
    /// Whether this was the traced run: `metrics` are then the per-layer
    /// metrics, otherwise the gated end-to-end ones.
    pub traced: bool,
    /// Commits the updater attempted in the measured windows.
    pub attempted: u64,
    /// Aborted or timed-out commits, commits never shown, and output
    /// check mismatches.
    pub failed: u64,
    /// Why, one line per kind of failure; empty when `failed` is 0.
    pub failures: Vec<String>,
    /// What the last line of standard output carries.
    pub metrics: Vec<Metric>,
    /// Printed and written to `--out`, never gated.
    pub reported: Vec<Metric>,
    pub non_default: Vec<(&'static str, String)>,
    /// Pre-formatted tables for the terminal (the latency budget).
    pub tables: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result line.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
        .to_string()
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.workload.name())),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            (
                "non_default_config",
                Json::obj(self.non_default.iter().map(|(k, v)| (*k, Json::str(v)))),
            ),
            (
                if self.traced {
                    "per_layer"
                } else {
                    "end_to_end"
                },
                metrics_json(&self.metrics),
            ),
            ("reported", metrics_json(&self.reported)),
        ])
    }

    /// Human-readable form, for standard error.
    pub fn print(&self) {
        let title = if self.traced {
            "per-layer"
        } else {
            "end-to-end"
        };
        eprintln!(
            "== {} ({title}): attempted {} failed {} ==",
            self.workload.name(),
            self.attempted,
            self.failed
        );
        for (field, value) in &self.non_default {
            eprintln!("  non-default {field} = {value}");
        }
        for failure in &self.failures {
            eprintln!("  FAILED: {failure}");
        }
        let gated = if self.traced { "per-layer" } else { "gated" };
        for (heading, metrics) in [
            (gated, &self.metrics),
            ("printed, not gated", &self.reported),
        ] {
            if metrics.is_empty() {
                continue;
            }
            eprintln!("  {heading}:");
            for m in metrics {
                let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
                let label = m.percentile.map_or(String::new(), |p| format!("  [p{p}]"));
                eprintln!(
                    "    {:<32} {:>14.3} {}{label}{samples}",
                    m.name, m.value, m.unit
                );
            }
        }
        for table in &self.tables {
            eprintln!("{table}");
        }
    }
}

/// `compare`: one row per workload × gated metric; `Err` rows are past
/// their bound.
pub fn compare(a: &Json, b: &Json) -> Result<(Vec<String>, bool), String> {
    let rows_of = |doc: &Json| -> Vec<(String, String, f64)> {
        doc.get("workloads")
            .map(Json::as_array)
            .unwrap_or_default()
            .iter()
            .flat_map(|w| {
                let name = w
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string();
                w.get("end_to_end")
                    .map(Json::entries)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(move |(metric, m)| {
                        let value = m.get("value").and_then(Json::as_f64)?;
                        Some((name.clone(), metric.clone(), value))
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    let (rows_a, rows_b) = (rows_of(a), rows_of(b));
    if rows_a.is_empty() {
        return Err("first file holds no end-to-end metrics".into());
    }
    let mut lines = vec![format!(
        "{:<18} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "diff", "bound"
    )];
    let mut within = true;
    for (workload, metric, va) in &rows_a {
        let gate = END_TO_END
            .iter()
            .find(|g| g.name == metric)
            .ok_or_else(|| format!("{metric} is not a gated metric"))?;
        let vb = rows_b
            .iter()
            .find(|(w, m, _)| w == workload && m == metric)
            .map(|(_, _, v)| *v)
            .ok_or_else(|| format!("second file lacks {workload} {metric}"))?;
        // Positive = b is worse than a.
        let worse = match gate.better {
            Better::Lower => (vb - va) / va,
            Better::Higher => (va - vb) / va,
        };
        let past = worse > gate.bound;
        within &= !past;
        lines.push(format!(
            "{workload:<18} {metric:<24} {va:>14.3} {vb:>14.3} {:>+8.1}% {:>6.0}%{}",
            worse * 100.0,
            gate.bound * 100.0,
            if past { "  PAST BOUND" } else { "" }
        ));
    }
    Ok((lines, within))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(refresh: f64, rate: f64) -> Json {
        Json::obj([(
            "workloads",
            Json::Arr(vec![Json::obj([
                ("name", Json::str("steady.delta")),
                (
                    "end_to_end",
                    Json::obj([
                        ("refresh_p50_us", Json::obj([("value", Json::Num(refresh))])),
                        ("commits_per_s", Json::obj([("value", Json::Num(rate))])),
                    ]),
                ),
            ])]),
        )])
    }

    #[test]
    fn compare_flags_only_worsening_past_the_bound() {
        let (lines, ok) = compare(&doc(300.0, 400.0), &doc(330.0, 399.0)).unwrap();
        assert!(ok, "{lines:?}");
        assert_eq!(lines.len(), 3);
        // Much better is never a failure, in either direction.
        assert!(compare(&doc(300.0, 400.0), &doc(100.0, 900.0)).unwrap().1);
        assert!(!compare(&doc(300.0, 400.0), &doc(400.0, 400.0)).unwrap().1);
        assert!(!compare(&doc(300.0, 400.0), &doc(300.0, 250.0)).unwrap().1);
        assert!(compare(
            &Json::obj([("workloads", Json::Arr(vec![]))]),
            &doc(1.0, 1.0)
        )
        .is_err());
    }
}
