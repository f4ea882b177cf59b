//! The result line the benchmark ends with, and the run record file.

use std::fmt::Write as _;

use bsched_analyze::json;

/// End-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run reports, with their units.
pub const PER_LAYER: [(&str, &str); 16] = [
    ("pipeline.compile_ms", "ms"),
    ("dag.build_ms", "ms"),
    ("dag.builds", "count"),
    ("dag.edges", "count"),
    ("core.weights_ms", "ms"),
    ("core.list_ms", "ms"),
    ("regalloc.allocate_ms", "ms"),
    ("regalloc.spills", "count"),
    ("cpusim.simulate_ms", "ms"),
    ("cpusim.block_runs", "count"),
    ("cpusim.cycles", "cycles"),
    ("stats.bootstrap_ms", "ms"),
    ("harness.self_ms", "ms"),
    ("harness.ops", "count"),
    ("trace.coverage", "fraction"),
    ("trace.overhead", "fraction"),
];

/// One reported number. `value` is `None` when the samples do not
/// support it (a percentile with too few samples beyond it).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Measured value.
    pub value: Option<f64>,
    /// Samples behind the value, where it is an order statistic.
    pub samples: Option<usize>,
}

impl Metric {
    /// A plain measured value.
    #[must_use]
    pub fn value(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value: Some(value),
            samples: None,
        }
    }

    /// A percentile, carrying its sample count.
    #[must_use]
    pub fn percentile(name: &str, unit: &str, p: &crate::stats::Percentile) -> Metric {
        Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value: p.value,
            samples: Some(p.n),
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (cells, candidates, requests, replayed ops).
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// Why outputs were judged wrong, one line each.
    pub mismatches: Vec<String>,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Workload-specific detail for the run record, as JSON members
    /// (`"key":value` fragments).
    pub detail: Vec<(String, String)>,
}

impl Outcome {
    /// Whether every output checked out.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }

    /// Records one failed operation or wrong output.
    pub fn mismatch(&mut self, why: impl Into<String>) {
        self.fail(1, why);
    }

    /// Records `n` failed operations or wrong outputs under one reason.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        self.failed += n;
        self.mismatches.push(why.into());
    }

    /// Adds a record-only JSON member.
    pub fn detail(&mut self, key: &str, value: String) {
        self.detail.push((key.to_owned(), value));
    }

    /// The metrics as a JSON object (`null` for unsupported values).
    #[must_use]
    pub fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .filter_map(|m| {
                let v = m.value?;
                Some(format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json::string(&m.name),
                    number(v),
                    json::string(&m.unit)
                ))
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    /// The result line the benchmark prints last.
    #[must_use]
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// Human-readable metric lines, every one with name, unit and
    /// sample count.
    #[must_use]
    pub fn report(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let value = m.value.map_or_else(|| "insufficient".to_owned(), number);
            let samples = m.samples.map_or_else(String::new, |n| format!("  (n={n})"));
            let _ = writeln!(out, "  {:<22} {:>16} {}{samples}", m.name, value, m.unit);
        }
        out
    }

    /// The run record: conditions, metrics, and detail.
    #[must_use]
    pub fn record_json(&self, cfg: &crate::RunConfig) -> String {
        let mut members = vec![
            ("schema".to_owned(), json::string("bsched-benchmark-run-v1")),
            ("workload".to_owned(), json::string(&cfg.workload)),
            ("seed".to_owned(), cfg.seed.to_string()),
            ("seconds".to_owned(), number(cfg.window.as_secs_f64())),
            ("trace".to_owned(), cfg.trace.to_string()),
            ("smoke".to_owned(), cfg.smoke.to_string()),
            ("nproc".to_owned(), crate::nproc().to_string()),
            ("correct".to_owned(), self.correct().to_string()),
            ("attempted".to_owned(), self.attempted.to_string()),
            ("failed".to_owned(), self.failed.to_string()),
            (
                "mismatches".to_owned(),
                format!(
                    "[{}]",
                    self.mismatches
                        .iter()
                        .map(|m| json::string(m))
                        .collect::<Vec<_>>()
                        .join(",")
                ),
            ),
            ("metrics".to_owned(), self.metrics_json()),
        ];
        members.extend(self.detail.iter().cloned());
        let body: Vec<String> = members
            .iter()
            .map(|(k, v)| format!("{}:{v}", json::string(k)))
            .collect();
        format!("{{{}}}\n", body.join(","))
    }
}

/// A finite number with all its digits (shortest round-trip form).
#[must_use]
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_its_four_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.metrics.push(Metric::value("setup_s", "s", 0.812_734_1));
        o.metrics.push(Metric {
            name: "latency_ms".to_owned(),
            unit: "ms".to_owned(),
            value: None,
            samples: Some(8),
        });
        let v = json::parse(&o.result_line()).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(0.812_734_1)
        );
        assert!(
            m.get("latency_ms").is_none(),
            "unsupported values are left out"
        );
        assert!(o.report().contains("insufficient ms  (n=8)"));
        o.mismatch("cell differs");
        assert!(!o.correct());
    }

    /// The metric lists the runs report are the ones `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let v = json::parse(text).expect("BENCHMARK.json is valid JSON");
        for (key, want) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let got: Vec<(&str, &str)> = v
                .get(key)
                .and_then(json::Json::as_array)
                .expect("a metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(json::Json::as_str).expect(f);
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(got, want, "{key}");
        }
    }
}
