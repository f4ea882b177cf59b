//! How much validation the pipeline runs.

/// How much independent validation the pipeline performs per block.
///
/// Ordered: each level includes everything below it, so call sites can
/// gate on `level >= ValidationLevel::Schedule`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValidationLevel {
    /// No validation. Output is byte-identical to a build without the
    /// validators.
    Off,
    /// Check that both scheduling passes emit topological orders of the
    /// code DAG ([`verify_schedule`](crate::verify_schedule)).
    Schedule,
    /// `Schedule` plus value-flow allocation checking
    /// ([`verify_allocation`](crate::verify_allocation)) and simulator
    /// timeline checking ([`verify_timeline`](crate::verify_timeline)).
    Full,
}

impl Default for ValidationLevel {
    /// `Schedule` in debug builds, `Off` in release builds (validation
    /// never perturbs measured table output).
    fn default() -> Self {
        if cfg!(debug_assertions) {
            ValidationLevel::Schedule
        } else {
            ValidationLevel::Off
        }
    }
}

impl std::str::FromStr for ValidationLevel {
    type Err = String;

    /// Parses `BSCHED_VALIDATE`'s spelling, in any case: `off` (also
    /// `0`/`none`), `schedule` or `full`.
    fn from_str(s: &str) -> Result<ValidationLevel, String> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Ok(ValidationLevel::Off),
            "schedule" => Ok(ValidationLevel::Schedule),
            "full" => Ok(ValidationLevel::Full),
            _ => Err(format!(
                "unknown validation level {s:?} (off|schedule|full)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(ValidationLevel::Off < ValidationLevel::Schedule);
        assert!(ValidationLevel::Schedule < ValidationLevel::Full);
    }

    #[test]
    fn env_var_selects_level() {
        for (text, level) in [
            ("off", ValidationLevel::Off),
            ("0", ValidationLevel::Off),
            ("none", ValidationLevel::Off),
            ("schedule", ValidationLevel::Schedule),
            ("SCHEDULE", ValidationLevel::Schedule),
            ("full", ValidationLevel::Full),
            ("Full", ValidationLevel::Full),
        ] {
            assert_eq!(text.parse(), Ok(level), "{text:?}");
        }
        for typo in ["", "ful", "2"] {
            assert!(typo.parse::<ValidationLevel>().is_err(), "{typo:?}");
        }
    }
}
