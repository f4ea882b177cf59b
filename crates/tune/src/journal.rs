//! Crash-safe search journal.
//!
//! A tuning run over a real benchmark suite evaluates dozens of
//! candidates at 30 simulated runs each; killing the process mid-search
//! should not throw that work away. Each terminal candidate outcome is
//! recorded, keyed by the candidate's canonical policy string, in the
//! workspace's one crash-safe journal format
//! ([`bsched_analyze::journal`]): a fingerprinted header, one synced
//! append per outcome, and whole-file discard on a fingerprint
//! mismatch. This module holds only the outcome line codec.

use bsched_analyze::journal::{hex, unhex, Journal, Record};
use bsched_analyze::json::{self, Json};

pub use bsched_analyze::journal::fingerprint_mix;

/// The search journal: one [`CandidateOutcome`] per canonical policy.
pub type TuneJournal = Journal<CandidateOutcome>;

/// One terminal candidate outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum CandidateOutcome {
    /// The candidate evaluated cleanly; lower scores are better
    /// (mean runtime in cycles).
    Score(f64),
    /// The candidate tripped the per-candidate wall-clock timeout and
    /// was quarantined.
    TimedOut,
    /// Compilation or simulation failed with a typed reason.
    Failed(String),
}

impl Record for CandidateOutcome {
    const MAGIC: &'static str = "bsched-tune-journal-v1";
    const KEY: &'static str = "candidate";

    fn render(&self) -> String {
        match self {
            CandidateOutcome::Score(score) => {
                format!("\"status\":\"ok\",\"score\":{}", hex(*score))
            }
            CandidateOutcome::TimedOut => "\"status\":\"timeout\"".to_owned(),
            CandidateOutcome::Failed(reason) => {
                format!("\"status\":\"failed\",\"reason\":{}", json::string(reason))
            }
        }
    }

    fn parse(v: &Json) -> Option<CandidateOutcome> {
        Some(match v.get("status")?.as_str()? {
            "ok" => CandidateOutcome::Score(unhex(v.get("score")?)?),
            "timeout" => CandidateOutcome::TimedOut,
            "failed" => CandidateOutcome::Failed(
                v.get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
            ),
            _ => return None,
        })
    }
}
