//! The candidate space: every scheduling policy the tuner may try.
//!
//! Kept apart from the search that walks it, as in search-based
//! compilation (Telamon-style), the space is a *declarative* cross
//! product of three staged decisions — weight family, fractional-weight
//! rounding, and ready-list tie-break chain — and knows nothing about
//! how candidates are scored or traversed. The beam search walks the stages in order,
//! so a seed identifies a reproducible search.
//!
//! The space's first candidate is [`PolicySpec::balanced_default`] (the
//! paper's balanced scheduler verbatim), which the search measures
//! first. A tuned result can therefore never score worse than balanced
//! under the same evaluation protocol.

use bsched_core::{Ratio, Rounding, TieBreakChain};
use bsched_dag::ChancesMethod;
use bsched_memsim::{LatencyModel, MemorySystem};
use bsched_pipeline::{PolicySpec, WeightFamily};

/// Tie-break chains the space enumerates, as parseable specs. The first
/// entry is the paper's §4.1 chain (the [`TieBreakChain::default`]), so
/// the balanced baseline is always stage-3 candidate zero.
const TIE_CHAINS: [&str; 8] = [
    "pressure+,exposed+",
    "",
    "slack-",
    "slack-,pressure+",
    "density+,slack-",
    "exposed+,pressure+",
    "pressure+,exposed+,slack-",
    "slack-,density+,pressure+",
];

/// A declarative cross product of weight families, roundings, and
/// tie-break chains.
#[derive(Debug, Clone)]
pub struct CandidateSpace {
    families: Vec<WeightFamily>,
    roundings: Vec<Rounding>,
    ties: Vec<TieBreakChain>,
}

impl CandidateSpace {
    /// The space anchored to `system`'s optimistic latency: traditional
    /// and blended families use it as their fixed-latency endpoint, the
    /// same derivation `bsched compare` applies when `--optimistic` is
    /// omitted.
    #[must_use]
    pub fn for_system(system: &MemorySystem) -> Self {
        Self::for_optimistic_latency(system.optimistic_latency())
    }

    /// The space anchored to an explicit optimistic load latency.
    #[must_use]
    pub fn for_optimistic_latency(latency: f64) -> Self {
        #[allow(clippy::cast_possible_truncation)]
        let opt = Ratio::from_int(latency.round().max(1.0) as i64);
        let mut families = vec![
            WeightFamily::Balanced {
                method: ChancesMethod::Exact,
            },
            WeightFamily::Balanced {
                method: ChancesMethod::LevelApprox,
            },
            WeightFamily::Average,
            WeightFamily::Traditional {
                latency: Ratio::ONE,
            },
        ];
        if opt != Ratio::ONE {
            families.push(WeightFamily::Traditional { latency: opt });
        }
        for share in [Ratio::new(1, 4), Ratio::new(1, 2), Ratio::new(3, 4)] {
            families.push(WeightFamily::Blend {
                latency: opt,
                share,
            });
        }
        let ties = TIE_CHAINS
            .iter()
            .map(|spec| TieBreakChain::parse(spec).expect("curated chain specs parse"))
            .collect();
        Self {
            families,
            roundings: vec![Rounding::Nearest, Rounding::Floor, Rounding::Ceil],
            ties,
        }
    }

    /// Stage-1 decisions: the weight families.
    #[must_use]
    pub fn families(&self) -> &[WeightFamily] {
        &self.families
    }

    /// Stage-2 decisions: the rounding modes.
    #[must_use]
    pub fn roundings(&self) -> &[Rounding] {
        &self.roundings
    }

    /// Stage-3 decisions: the tie-break chains.
    #[must_use]
    pub fn tie_chains(&self) -> &[TieBreakChain] {
        &self.ties
    }

    /// Total number of complete candidates in the cross product.
    #[must_use]
    pub fn len(&self) -> usize {
        self.families.len() * self.roundings.len() * self.ties.len()
    }

    /// Whether the space is empty (it never is for the constructors
    /// above; kept for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every complete candidate, in deterministic
    /// family-major/rounding/ties order.
    #[must_use]
    pub fn enumerate(&self) -> Vec<PolicySpec> {
        let mut out = Vec::with_capacity(self.len());
        for &family in &self.families {
            for &rounding in &self.roundings {
                for &ties in &self.ties {
                    out.push(PolicySpec {
                        family,
                        rounding,
                        ties,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_contains_the_balanced_baseline() {
        let space = CandidateSpace::for_optimistic_latency(30.0);
        // First, so the search measures it first and it wins every tie.
        assert_eq!(space.enumerate()[0], PolicySpec::balanced_default());
    }

    #[test]
    fn enumeration_matches_the_stage_product() {
        let space = CandidateSpace::for_optimistic_latency(3.0);
        let all = space.enumerate();
        assert_eq!(all.len(), space.len());
        // Candidates are pairwise distinct under canonical serialization
        // (the cache-key feed), so no two can collide in the fleet cache.
        let mut canon: Vec<String> = all.iter().map(PolicySpec::canonical).collect();
        canon.sort();
        canon.dedup();
        assert_eq!(canon.len(), all.len());
    }

    #[test]
    fn unit_optimistic_latency_drops_the_duplicate_traditional() {
        let unit = CandidateSpace::for_optimistic_latency(1.0);
        let wide = CandidateSpace::for_optimistic_latency(30.0);
        assert_eq!(unit.families().len() + 1, wide.families().len());
    }
}
