//! Tuned scheduling policies: the autotuner's candidate representation.
//!
//! A [`PolicySpec`] pins down every free parameter of one list-scheduling
//! configuration: the weight-function family (balanced, traditional,
//! block-average, or an exact balanced/traditional blend), the
//! fractional-weight rounding mode, and the ready-list tie-break chain.
//! `bsched-tune` searches over these; once found, a policy is a
//! first-class [`crate::SchedulerChoice`] variant usable everywhere a
//! scheduler is — the batch tables, `bsched verify`/`analyze`, and the
//! serving daemon.
//!
//! Two serializations, both lossless:
//!
//! * the **canonical string** (`family=…;rounding=…;ties=…`) — a single
//!   unambiguous line used for cache keys, wire specs
//!   (`"scheduler":"policy:family=…"`), and display;
//! * the **JSON artifact** written by `bsched tune --out` and read back
//!   by `--scheduler policy:<file.json>`.

use std::fmt;

use bsched_analyze::json::{self, Json};
use bsched_core::{
    AverageParallelismWeights, BalancedWeights, BlendedWeights, Ratio, Rounding, TieBreakChain,
    TraditionalWeights, WeightAssigner,
};
use bsched_dag::ChancesMethod;

/// Magic/version tag of the JSON policy artifact.
pub const POLICY_ARTIFACT_VERSION: &str = "bsched-policy-v1";

/// The weight-function family a policy schedules with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightFamily {
    /// The paper's balanced weights.
    Balanced {
        /// Exact `Chances` DP or the §3 level approximation.
        method: ChancesMethod,
    },
    /// One fixed optimistic load latency.
    Traditional {
        /// The assumed load latency.
        latency: Ratio,
    },
    /// The §3 block-average alternative.
    Average,
    /// Exact convex combination `share·balanced + (1−share)·traditional`.
    Blend {
        /// The traditional half's optimistic latency.
        latency: Ratio,
        /// Balanced weight in the combination, in `[0, 1]`.
        share: Ratio,
    },
}

impl WeightFamily {
    /// The weight assigner this family schedules with.
    pub(crate) fn assigner(self) -> Box<dyn WeightAssigner> {
        match self {
            WeightFamily::Balanced { method } => {
                Box::new(BalancedWeights::new().with_method(method))
            }
            WeightFamily::Traditional { latency } => Box::new(TraditionalWeights::new(latency)),
            WeightFamily::Average => Box::new(AverageParallelismWeights::new()),
            WeightFamily::Blend { latency, share } => Box::new(BlendedWeights::new(latency, share)),
        }
    }
}

/// One fully specified scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicySpec {
    /// Weight-function family.
    pub family: WeightFamily,
    /// How fractional weights become integer latencies.
    pub rounding: Rounding,
    /// Ready-list tie-break chain.
    pub ties: TieBreakChain,
}

/// Why a policy spec or artifact failed to parse. Always a typed error,
/// never a panic: malformed artifacts come from disk and the network.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyParseError(pub String);

impl fmt::Display for PolicyParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad policy: {}", self.0)
    }
}

impl std::error::Error for PolicyParseError {}

fn err(msg: impl Into<String>) -> PolicyParseError {
    PolicyParseError(msg.into())
}

/// Renders a ratio as the unambiguous `num/den` form (never the
/// human `2 3/5` mixed form, which contains a space).
fn ratio_canonical(r: Ratio) -> String {
    format!("{}/{}", r.numer(), r.denom())
}

fn parse_ratio(s: &str) -> Result<Ratio, PolicyParseError> {
    s.parse::<Ratio>()
        .map_err(|e| err(format!("bad ratio {s:?}: {e}")))
}

impl PolicySpec {
    /// The policy equivalent to [`crate::SchedulerChoice::balanced`]
    /// under the default pipeline: exact balanced weights, nearest
    /// rounding, the paper's tie-break chain. Always a member of the
    /// tuner's candidate space, which is why a tuned policy can never
    /// score worse than balanced under the same evaluation.
    #[must_use]
    pub fn balanced_default() -> Self {
        Self {
            family: WeightFamily::Balanced {
                method: ChancesMethod::Exact,
            },
            rounding: Rounding::Nearest,
            ties: TieBreakChain::default(),
        }
    }

    /// The canonical one-line form: `family=…;rounding=…;ties=…`.
    ///
    /// Field order is fixed and every parameter is spelled out, so two
    /// distinct policies always render distinct strings — this is what
    /// feeds the serving cache's 128-bit key.
    #[must_use]
    pub fn canonical(&self) -> String {
        let family = match self.family {
            WeightFamily::Balanced {
                method: ChancesMethod::Exact,
            } => "balanced".to_owned(),
            WeightFamily::Balanced {
                method: ChancesMethod::LevelApprox,
            } => "balanced-approx".to_owned(),
            WeightFamily::Traditional { latency } => {
                format!("traditional:{}", ratio_canonical(latency))
            }
            WeightFamily::Average => "average".to_owned(),
            WeightFamily::Blend { latency, share } => format!(
                "blend:{}:{}",
                ratio_canonical(latency),
                ratio_canonical(share)
            ),
        };
        let rounding = match self.rounding {
            Rounding::Nearest => "nearest",
            Rounding::Floor => "floor",
            Rounding::Ceil => "ceil",
        };
        format!("family={family};rounding={rounding};ties={}", self.ties)
    }

    /// Parses the canonical form produced by [`PolicySpec::canonical`].
    ///
    /// # Errors
    ///
    /// A typed [`PolicyParseError`] naming the first malformed field.
    pub fn parse_canonical(spec: &str) -> Result<Self, PolicyParseError> {
        let mut family = None;
        let mut rounding = None;
        let mut ties = None;
        for part in spec.trim().split(';') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| err(format!("expected key=value, got {part:?}")))?;
            match key {
                "family" => family = Some(Self::parse_family(value)?),
                "rounding" => {
                    rounding = Some(match value {
                        "nearest" => Rounding::Nearest,
                        "floor" => Rounding::Floor,
                        "ceil" => Rounding::Ceil,
                        other => {
                            return Err(err(format!(
                                "unknown rounding {other:?} (nearest|floor|ceil)"
                            )))
                        }
                    });
                }
                "ties" => {
                    ties =
                        Some(TieBreakChain::parse(value).map_err(|e| err(format!("ties: {e}")))?);
                }
                other => return Err(err(format!("unknown policy field {other:?}"))),
            }
        }
        Ok(Self {
            family: family.ok_or_else(|| err("missing field \"family\""))?,
            rounding: rounding.ok_or_else(|| err("missing field \"rounding\""))?,
            ties: ties.ok_or_else(|| err("missing field \"ties\""))?,
        })
    }

    fn parse_family(value: &str) -> Result<WeightFamily, PolicyParseError> {
        match value {
            "balanced" => Ok(WeightFamily::Balanced {
                method: ChancesMethod::Exact,
            }),
            "balanced-approx" => Ok(WeightFamily::Balanced {
                method: ChancesMethod::LevelApprox,
            }),
            "average" => Ok(WeightFamily::Average),
            other => {
                if let Some(lat) = other.strip_prefix("traditional:") {
                    Ok(WeightFamily::Traditional {
                        latency: parse_ratio(lat)?,
                    })
                } else if let Some(rest) = other.strip_prefix("blend:") {
                    let (lat, share) = rest
                        .split_once(':')
                        .ok_or_else(|| err(format!("blend wants latency:share, got {rest:?}")))?;
                    let share = parse_ratio(share)?;
                    if share < Ratio::ZERO || share > Ratio::ONE {
                        return Err(err(format!("blend share {share} outside [0, 1]")));
                    }
                    let latency = parse_ratio(lat)?;
                    if latency <= Ratio::ZERO {
                        return Err(err(format!("blend latency {latency} must be positive")));
                    }
                    Ok(WeightFamily::Blend { latency, share })
                } else {
                    Err(err(format!(
                        "unknown family {other:?} \
                         (balanced|balanced-approx|traditional:<r>|average|blend:<r>:<r>)"
                    )))
                }
            }
        }
    }

    /// Renders the JSON policy artifact `bsched tune --out` writes.
    /// `meta` entries (already-rendered JSON values) are appended after
    /// the policy fields — the tuner records its score and provenance
    /// there without this type knowing about them.
    #[must_use]
    pub fn to_artifact_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = format!(
            "{{\"policy\":{},\"canonical\":{}",
            json::string(POLICY_ARTIFACT_VERSION),
            json::string(&self.canonical())
        );
        for (key, value) in meta {
            out.push_str(&format!(",{}:{value}", json::string(key)));
        }
        out.push('}');
        out
    }

    /// Parses a JSON policy artifact (the whole file contents).
    ///
    /// # Errors
    ///
    /// A typed [`PolicyParseError`] on non-JSON input, a missing or
    /// mismatched version tag, or a malformed canonical string.
    pub fn from_artifact_json(text: &str) -> Result<Self, PolicyParseError> {
        let v: Json = json::parse(text.trim()).ok_or_else(|| err("artifact is not valid JSON"))?;
        let version = v
            .get("policy")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing \"policy\" version tag"))?;
        if version != POLICY_ARTIFACT_VERSION {
            return Err(err(format!(
                "unsupported policy version {version:?} (want {POLICY_ARTIFACT_VERSION:?})"
            )));
        }
        let canonical = v
            .get("canonical")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing \"canonical\" policy string"))?;
        Self::parse_canonical(canonical)
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_core::{TieBreak, TiePrefer};

    fn sample() -> PolicySpec {
        PolicySpec {
            family: WeightFamily::Blend {
                latency: Ratio::from_int(30),
                share: Ratio::new(1, 2),
            },
            rounding: Rounding::Ceil,
            ties: TieBreakChain::try_from_keys(&[
                (TieBreak::Slack, TiePrefer::Low),
                (TieBreak::PressureDelta, TiePrefer::High),
            ])
            .unwrap(),
        }
    }

    #[test]
    fn canonical_roundtrip_every_family() {
        let specs = [
            PolicySpec::balanced_default(),
            PolicySpec {
                family: WeightFamily::Balanced {
                    method: ChancesMethod::LevelApprox,
                },
                ..PolicySpec::balanced_default()
            },
            PolicySpec {
                family: WeightFamily::Traditional {
                    latency: Ratio::new(13, 5),
                },
                rounding: Rounding::Floor,
                ties: TieBreakChain::parse("source-").unwrap(),
            },
            PolicySpec {
                family: WeightFamily::Average,
                ..PolicySpec::balanced_default()
            },
            sample(),
        ];
        for spec in specs {
            let text = spec.canonical();
            assert_eq!(PolicySpec::parse_canonical(&text), Ok(spec), "{text}");
        }
    }

    #[test]
    fn canonical_is_golden_stable() {
        // Pinned: this string feeds the serving cache key. Changing it
        // invalidates every cached entry for tuned policies — do so
        // knowingly.
        assert_eq!(
            sample().canonical(),
            "family=blend:30/1:1/2;rounding=ceil;ties=slack-,pressure+"
        );
        assert_eq!(
            PolicySpec::balanced_default().canonical(),
            "family=balanced;rounding=nearest;ties=pressure+,exposed+"
        );
    }

    #[test]
    fn artifact_roundtrip_and_meta() {
        let spec = sample();
        let text = spec.to_artifact_json(&[("score", "123.5".to_owned())]);
        assert_eq!(PolicySpec::from_artifact_json(&text), Ok(spec));
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("score").unwrap().as_f64(), Some(123.5));
    }

    #[test]
    fn typed_errors_for_malformed_input() {
        for (text, needle) in [
            ("", "expected key=value"),
            ("family=balanced", "missing field \"rounding\""),
            ("family=bogus;rounding=nearest;ties=", "unknown family"),
            ("family=balanced;rounding=up;ties=", "unknown rounding"),
            ("family=balanced;rounding=ceil;ties=junk", "ties:"),
            (
                "family=blend:30/1:3/2;rounding=ceil;ties=",
                "outside [0, 1]",
            ),
            ("family=blend:0/1:1/2;rounding=ceil;ties=", "positive"),
        ] {
            let e = PolicySpec::parse_canonical(text).expect_err(text);
            assert!(e.to_string().contains(needle), "{text} -> {e}");
        }
        for (text, needle) in [
            ("not json", "not valid JSON"),
            ("{}", "version tag"),
            (r#"{"policy":"v0"}"#, "unsupported policy version"),
            (r#"{"policy":"bsched-policy-v1"}"#, "missing \"canonical\""),
        ] {
            let e = PolicySpec::from_artifact_json(text).expect_err(text);
            assert!(e.to_string().contains(needle), "{text} -> {e}");
        }
    }
}
