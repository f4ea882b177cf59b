//! Processor models (paper §4.4).

use std::fmt;

/// How the processor limits outstanding non-blocking loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProcessorModel {
    /// UNLIMITED: any number of loads may be in flight. "Similar to
    /// theoretical dataflow machines … it exposes the maximum benefit
    /// that processor parallelism can achieve."
    #[default]
    Unlimited,
    /// MAX-k: at most `k` loads simultaneously executing; issuing one
    /// more blocks until an outstanding load completes. The paper's
    /// MAX-8 is `MaxOutstanding(8)`.
    MaxOutstanding(u32),
    /// LEN-k: a load outstanding for `k` cycles blocks the processor
    /// until its data returns, as in the Tera. The paper's LEN-8 is
    /// `MaxLength(8)`.
    MaxLength(u32),
}

impl ProcessorModel {
    /// The paper's MAX-8 configuration.
    #[must_use]
    pub fn max_8() -> Self {
        ProcessorModel::MaxOutstanding(8)
    }

    /// The paper's LEN-8 configuration.
    #[must_use]
    pub fn len_8() -> Self {
        ProcessorModel::MaxLength(8)
    }

    /// The three processor models evaluated in the paper, in table order.
    #[must_use]
    pub fn paper_models() -> [ProcessorModel; 3] {
        [
            ProcessorModel::Unlimited,
            ProcessorModel::max_8(),
            ProcessorModel::len_8(),
        ]
    }

    /// The paper's display name for this model.
    #[must_use]
    pub fn paper_name(&self) -> String {
        match self {
            ProcessorModel::Unlimited => "UNLIMITED".to_owned(),
            ProcessorModel::MaxOutstanding(k) => format!("MAX-{k}"),
            ProcessorModel::MaxLength(k) => format!("LEN-{k}"),
        }
    }
}

impl fmt::Display for ProcessorModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.paper_name())
    }
}

impl std::str::FromStr for ProcessorModel {
    type Err = String;

    /// Parses the spelling shared by the CLI's `--processor`, the wire
    /// protocol's `processor` field and `table2`'s `BSCHED_PROCESSOR`:
    /// `unlimited`, `max8` or `len8`.
    fn from_str(s: &str) -> Result<ProcessorModel, String> {
        match s {
            "unlimited" => Ok(ProcessorModel::Unlimited),
            "max8" => Ok(ProcessorModel::max_8()),
            "len8" => Ok(ProcessorModel::len_8()),
            other => Err(format!("unknown processor {other:?} (unlimited|max8|len8)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_names() {
        assert_eq!(ProcessorModel::Unlimited.paper_name(), "UNLIMITED");
        assert_eq!(ProcessorModel::max_8().paper_name(), "MAX-8");
        assert_eq!(ProcessorModel::len_8().paper_name(), "LEN-8");
        assert_eq!(ProcessorModel::MaxOutstanding(4).to_string(), "MAX-4");
    }

    #[test]
    fn paper_models_in_order() {
        let models = ProcessorModel::paper_models();
        assert_eq!(models[0], ProcessorModel::Unlimited);
        assert_eq!(models[1], ProcessorModel::MaxOutstanding(8));
        assert_eq!(models[2], ProcessorModel::MaxLength(8));
    }

    #[test]
    fn default_is_unlimited() {
        assert_eq!(ProcessorModel::default(), ProcessorModel::Unlimited);
    }
}
