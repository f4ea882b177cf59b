//! `compare PARENT/ CHANGE/`: one verdict per (workload, metric).
//!
//! Runs are paired in file-name order, which is the order an
//! alternating parent/change schedule produces them in.

use std::collections::BTreeMap;
use std::path::Path;

use bsched_analyze::json::{self, Json};

use crate::stats::{median, quartiles, relative_iqr};

/// How a change compares with its parent on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Won at least 9 in 10 of at least 10 pairs (ties count for
    /// neither side) and the medians differ by more than the parent's
    /// interquartile range.
    Improved,
    /// The median is worse than the parent's by more than the bound.
    Regressed,
    /// Neither.
    Unchanged,
    /// The parent's run-to-run spread exceeds the bound, so a change of
    /// that size could not be seen.
    Unresolved,
}

impl Class {
    /// The row label.
    #[must_use]
    pub fn word(self) -> &'static str {
        match self {
            Class::Improved => "improved",
            Class::Regressed => "regressed",
            Class::Unchanged => "unchanged",
            Class::Unresolved => "unresolved",
        }
    }
}

/// A gated metric from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Metric name.
    pub name: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// Classifies `change` against `parent` (runs paired by index).
#[must_use]
pub fn classify(parent: &[f64], change: &[f64], gate: &Gate) -> Class {
    let (Some(pm), Some(cm)) = (median(parent), median(change)) else {
        return Class::Unresolved;
    };
    let better = |a: f64, b: f64| if gate.higher_is_better { a > b } else { a < b };
    let worse_share = if gate.higher_is_better {
        (pm - cm) / pm.abs()
    } else {
        (cm - pm) / pm.abs()
    };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let all_worse = change.iter().all(|&c| parent.iter().all(|&p| better(p, c)));
    let spread = relative_iqr(parent).unwrap_or(f64::INFINITY);
    if spread > gate.bound && !all_better {
        return if all_worse && worse_share > gate.bound {
            Class::Regressed
        } else {
            Class::Unresolved
        };
    }
    if worse_share > gate.bound {
        return Class::Regressed;
    }
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| better(c, p))
        .count();
    let iqr = quartiles(parent).map_or(f64::INFINITY, |[q1, _, q3]| q3 - q1);
    if pairs >= 10 && wins * 10 >= pairs * 9 && better(cm, pm) && (cm - pm).abs() > iqr {
        Class::Improved
    } else {
        Class::Unchanged
    }
}

/// The end-to-end gates in a `BENCHMARK.json`.
///
/// # Errors
///
/// The file is unreadable or not the expected shape.
pub fn gates(text: &str) -> Result<Vec<Gate>, String> {
    let v = json::parse(text).ok_or("BENCHMARK.json is not valid JSON")?;
    let list = v
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(Gate {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .to_owned(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Untraced run records in `dir`, by workload, in file-name order.
///
/// # Errors
///
/// The directory or a record is unreadable.
pub fn load_runs(dir: &Path) -> Result<BTreeMap<String, Vec<BTreeMap<String, f64>>>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut out: BTreeMap<String, Vec<BTreeMap<String, f64>>> = BTreeMap::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(v) = json::parse(&text) else {
            continue;
        };
        if v.get("trace").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let Some(workload) = v.get("workload").and_then(Json::as_str) else {
            continue;
        };
        let metrics = v
            .get("metrics")
            .and_then(Json::as_object)
            .map(|m| {
                m.iter()
                    .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                    .collect()
            })
            .unwrap_or_default();
        out.entry(workload.to_owned()).or_default().push(metrics);
    }
    Ok(out)
}

/// Prints one row per (workload, metric); returns the process exit code
/// (1 when any row regressed).
///
/// # Errors
///
/// Bad arguments or unreadable inputs.
pub fn main(args: &[String]) -> Result<i32, String> {
    let mut dirs = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_owned();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--benchmark" {
            benchmark = it.next().ok_or("--benchmark needs a path")?.clone();
        } else {
            dirs.push(a.clone());
        }
    }
    let [parent_dir, change_dir] = dirs.as_slice() else {
        return Err("usage: compare PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]".to_owned());
    };
    let text = std::fs::read_to_string(&benchmark).map_err(|e| format!("{benchmark}: {e}"))?;
    let gates = gates(&text)?;
    let parent = load_runs(Path::new(parent_dir))?;
    let change = load_runs(Path::new(change_dir))?;
    let mut code = 0;
    println!(
        "{:<11} {:<18} {:>5} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "pairs", "parent_med", "change_med", "spread", "bound"
    );
    for (workload, runs) in &parent {
        let empty = Vec::new();
        let other = change.get(workload).unwrap_or(&empty);
        for gate in &gates {
            let values = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|m| m.get(&gate.name).copied())
                    .collect()
            };
            let (p, c) = (values(runs), values(other));
            let class = classify(&p, &c, gate);
            if class == Class::Regressed {
                code = 1;
            }
            let fmt = |v: Option<f64>| v.map_or_else(|| "-".to_owned(), |v| format!("{v:.4}"));
            println!(
                "{:<11} {:<18} {:>5} {:>14} {:>14} {:>8} {:>6}  {}",
                workload,
                gate.name,
                p.len().min(c.len()),
                fmt(median(&p)),
                fmt(median(&c)),
                fmt(relative_iqr(&p)),
                gate.bound,
                class.word()
            );
        }
    }
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(higher: bool, bound: f64) -> Gate {
        Gate {
            name: "m".to_owned(),
            higher_is_better: higher,
            bound,
        }
    }

    fn around(center: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center * (1.0 + (i as f64 - n as f64 / 2.0) * 0.002))
            .collect()
    }

    #[test]
    fn a_clear_consistent_win_is_improved() {
        let parent = around(100.0, 10);
        let change = around(80.0, 10);
        assert_eq!(
            classify(&parent, &change, &gate(false, 0.1)),
            Class::Improved
        );
        assert_eq!(
            classify(&change, &parent, &gate(true, 0.25)),
            Class::Improved
        );
    }

    #[test]
    fn a_win_needs_ten_pairs() {
        let parent = around(100.0, 9);
        let change = around(80.0, 9);
        assert_eq!(
            classify(&parent, &change, &gate(false, 0.1)),
            Class::Unchanged
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        let parent = around(100.0, 10);
        let mut change = around(90.0, 10);
        change[0] = parent[0];
        change[1] = parent[1];
        // 8 wins of 10 pairs: below 9 in 10.
        assert_eq!(
            classify(&parent, &change, &gate(false, 0.2)),
            Class::Unchanged
        );
    }

    #[test]
    fn worsening_beyond_the_bound_is_regressed() {
        let parent = around(100.0, 10);
        let change = around(115.0, 10);
        assert_eq!(
            classify(&parent, &change, &gate(false, 0.1)),
            Class::Regressed
        );
        assert_eq!(
            classify(&parent, &change, &gate(false, 0.2)),
            Class::Unchanged
        );
        // Higher-is-better: a drop is the regression.
        assert_eq!(
            classify(&change, &parent, &gate(true, 0.1)),
            Class::Regressed
        );
    }

    #[test]
    fn a_wide_parent_spread_is_unresolved() {
        let parent = vec![
            60.0, 80.0, 100.0, 120.0, 140.0, 70.0, 90.0, 110.0, 130.0, 100.0,
        ];
        let change = vec![
            95.0, 105.0, 100.0, 98.0, 102.0, 101.0, 99.0, 103.0, 97.0, 100.0,
        ];
        assert_eq!(
            classify(&parent, &change, &gate(false, 0.1)),
            Class::Unresolved
        );
        // Unless every change run beats every parent run.
        let change = vec![50.0; 10];
        assert_eq!(
            classify(&parent, &change, &gate(false, 0.1)),
            Class::Improved
        );
    }

    #[test]
    fn gates_come_from_the_benchmark_file() {
        let text = r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25},
                       {"name":"throughput_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#;
        let g = gates(text).unwrap();
        assert_eq!(g.len(), 2);
        assert!(!g[0].higher_is_better);
        assert!(g[1].higher_is_better);
        assert_eq!(g[1].bound, 0.1);
    }
}
