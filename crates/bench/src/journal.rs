//! The table harness's crash-safe evaluation journal.
//!
//! [`run_cells_reported`](crate::run_cells_reported) records every
//! terminal cell outcome to the JSONL [`Journal`] named by
//! `BSCHED_JOURNAL`; a re-run with the same configuration resumes
//! recorded cells verbatim instead of re-evaluating them. The file
//! format, atomic rewrite and whole-file discard on a fingerprint
//! mismatch live in [`bsched_analyze::journal`]; this module holds only
//! the cell line codec and the environment hook.
//!
//! The fingerprint covers everything that determines cell values (master
//! seed, runs, fault plan, and the shape of the job list); a mismatch is
//! reported on stderr by [`from_env`].

use bsched_analyze::journal::{hex, unhex, Record};
use bsched_analyze::json::{self, Json};
use bsched_analyze::FailureKind;
use bsched_pipeline::ProgramEval;
use bsched_stats::{ConfidenceInterval, Improvement};

use crate::Cell;

/// The evaluation journal: one [`JournalEntry`] per cell key.
pub type Journal = bsched_analyze::journal::Journal<JournalEntry>;

/// One recorded terminal outcome.
#[derive(Debug, Clone)]
pub enum JournalEntry {
    /// The cell evaluated cleanly (possibly after retries).
    Ok(Cell),
    /// The cell degraded to a typed failure.
    Failed {
        /// Stable failure-vocabulary id.
        kind: FailureKind,
        /// Human-readable reason.
        reason: String,
    },
}

/// Opens the journal named by `BSCHED_JOURNAL`, if set. I/O failures
/// are reported to stderr and disable journaling rather than abort the
/// run; a fingerprint mismatch (the journal came from a run with a
/// different seed, run count, job list, or fault plan) reports how many
/// recorded cells were discarded.
#[must_use]
pub fn from_env(fingerprint: &str) -> Option<Journal> {
    let path = std::env::var("BSCHED_JOURNAL").ok()?;
    if path.trim().is_empty() {
        return None;
    }
    match Journal::open(path.clone(), fingerprint) {
        Ok(j) => {
            if j.discarded() > 0 {
                eprintln!(
                    "warning: BSCHED_JOURNAL={path}: fingerprint changed (seed, runs, \
                     job list, or fault plan differ); discarded {} recorded cell{} \
                     instead of resuming",
                    j.discarded(),
                    if j.discarded() == 1 { "" } else { "s" }
                );
            }
            Some(j)
        }
        Err(e) => {
            eprintln!("warning: BSCHED_JOURNAL={path}: {e}; journaling disabled");
            None
        }
    }
}

impl Record for JournalEntry {
    const MAGIC: &'static str = "bsched-journal-v1";
    const KEY: &'static str = "key";

    fn render(&self) -> String {
        match self {
            JournalEntry::Ok(cell) => format!(
                "\"status\":\"ok\",\"imp\":{{\"mean\":{},\"low\":{},\"high\":{},\"level\":{}}},\"trad\":{},\"bal\":{},\"tspill\":{},\"bspill\":{}",
                hex(cell.improvement.mean_percent),
                hex(cell.improvement.interval.low),
                hex(cell.improvement.interval.high),
                hex(cell.improvement.interval.level),
                eval_json(&cell.traditional),
                eval_json(&cell.balanced),
                hex(cell.traditional_spill_percent),
                hex(cell.balanced_spill_percent)
            ),
            JournalEntry::Failed { kind, reason } => format!(
                "\"status\":\"failed\",\"kind\":{},\"reason\":{}",
                json::string(kind.id()),
                json::string(reason)
            ),
        }
    }

    fn parse(v: &Json) -> Option<JournalEntry> {
        match v.get("status")?.as_str()? {
            "ok" => {
                let imp = v.get("imp")?;
                Some(JournalEntry::Ok(Cell {
                    improvement: Improvement {
                        mean_percent: get_f64(imp, "mean")?,
                        interval: ConfidenceInterval {
                            low: get_f64(imp, "low")?,
                            high: get_f64(imp, "high")?,
                            level: get_f64(imp, "level")?,
                        },
                    },
                    traditional: parse_eval(v.get("trad")?)?,
                    balanced: parse_eval(v.get("bal")?)?,
                    traditional_spill_percent: get_f64(v, "tspill")?,
                    balanced_spill_percent: get_f64(v, "bspill")?,
                }))
            }
            "failed" => Some(JournalEntry::Failed {
                kind: FailureKind::from_id(v.get("kind")?.as_str()?)?,
                reason: v.get("reason")?.as_str()?.to_owned(),
            }),
            _ => None,
        }
    }
}

fn eval_json(e: &ProgramEval) -> String {
    let boot: Vec<String> = e.bootstrap_runtimes.iter().map(|v| hex(*v)).collect();
    format!(
        "{{\"boot\":[{}],\"mean\":{},\"dyn\":{},\"ilk\":{}}}",
        boot.join(","),
        hex(e.mean_runtime),
        hex(e.dynamic_instructions),
        hex(e.mean_interlocks)
    )
}

fn get_f64(obj: &Json, key: &str) -> Option<f64> {
    unhex(obj.get(key)?)
}

fn parse_eval(v: &Json) -> Option<ProgramEval> {
    Some(ProgramEval {
        bootstrap_runtimes: v
            .get("boot")?
            .as_array()?
            .iter()
            .map(unhex)
            .collect::<Option<_>>()?,
        mean_runtime: get_f64(v, "mean")?,
        dynamic_instructions: get_f64(v, "dyn")?,
        mean_interlocks: get_f64(v, "ilk")?,
    })
}
