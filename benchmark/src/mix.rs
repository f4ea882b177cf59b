//! Seeded serve traffic: request lines and Zipf popularity.
//!
//! Every generated input is a pure function of the workload seed, so a
//! run can be repeated exactly and the daemon only ever sees the lines.

use bsched_analyze::json;
use bsched_bench::table2_rows;
use bsched_memsim::LatencyModel;
use bsched_stats::SplitMix64;

/// The inline kernels, copied from the repository's `kernels/` examples.
pub const INLINE_KERNELS: [(&str, &str); 4] = [
    ("daxpy", include_str!("../inputs/daxpy.bsk")),
    ("dot", include_str!("../inputs/dot.bsk")),
    ("program", include_str!("../inputs/program.bsk")),
    ("stencil", include_str!("../inputs/stencil.bsk")),
];

/// The eight Perfect Club stand-ins, by the names the daemon accepts.
pub const STANDINS: [&str; 8] = [
    "ADM", "ARC2D", "BDNA", "FLO52Q", "MDG", "MG3D", "QCD2", "TRACK",
];

/// Distinct keys in the warm set; below the daemon's 256-entry cache.
pub const WARM_KEYS: usize = 128;

/// Seeds carry the request index in their low 24 bits, so every cold
/// request of a run has its own key.
const INDEX_BITS: u32 = 24;

/// A deterministic stream derived from `seed` and a purpose tag.
#[must_use]
pub fn stream(seed: u64, tag: u64) -> SplitMix64 {
    let mut mix = SplitMix64::new(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    SplitMix64::new(mix.next_u64())
}

fn below(rng: &mut SplitMix64, bound: usize) -> usize {
    (rng.next_u64() % bound as u64) as usize
}

/// A uniform draw over the mix's sources: stand-ins are 75% of it,
/// inline kernels 25%.
fn draw_source(rng: &mut SplitMix64) -> usize {
    if below(rng, 4) < 3 {
        below(rng, STANDINS.len())
    } else {
        STANDINS.len() + below(rng, INLINE_KERNELS.len())
    }
}

/// One schedule request body (no `id`) for `source` (a stand-in index,
/// or the stand-in count plus an inline kernel index),
/// with system, scheduler and seed drawn from `rng`. Systems are the 17
/// Table 2 rows; schedulers are balanced, balanced-approx, traditional at
/// the row's optimistic latency, and average. `analyze` is left at the
/// daemon's default (on).
#[must_use]
pub fn request_body(rng: &mut SplitMix64, source: usize, request_seed: u64) -> String {
    let source = match source {
        s if s < STANDINS.len() => format!("\"benchmark\":{}", json::string(STANDINS[s])),
        s => format!(
            "\"kernel\":{}",
            json::string(INLINE_KERNELS[(s - STANDINS.len()) % INLINE_KERNELS.len()].1)
        ),
    };
    let rows = table2_rows();
    let row = &rows[below(rng, rows.len())];
    let scheduler = match below(rng, 4) {
        0 => "balanced".to_owned(),
        1 => "balanced-approx".to_owned(),
        2 => format!(
            "traditional={}/{}",
            row.optimistic.numer(),
            row.optimistic.denom()
        ),
        _ => "average".to_owned(),
    };
    format!(
        "{source},\"system\":{},\"scheduler\":{},\"seed\":{request_seed}",
        json::string(&row.system.name()),
        json::string(&scheduler)
    )
}

/// A full request line carrying `id`.
#[must_use]
pub fn with_id(id: usize, body: &str) -> String {
    format!("{{\"id\":\"{id}\",{body}}}")
}

fn seed_base(seed: u64, tag: u64) -> u64 {
    (stream(seed, tag).next_u64() & 0x0FFF_FFFF) << INDEX_BITS
}

/// Bodies of the cold workload's requests `first..first + count`: every
/// one has a distinct request seed, so every one misses the cache.
#[must_use]
pub fn cold_bodies(seed: u64, first: usize, count: usize) -> Vec<String> {
    let base = seed_base(seed, 1);
    (first..first + count)
        .map(|i| {
            let mut rng = stream(seed, 0x1000_0000 + i as u64);
            let source = draw_source(&mut rng);
            request_body(
                &mut rng,
                source,
                base | (i as u64 & ((1 << INDEX_BITS) - 1)),
            )
        })
        .collect()
}

/// The source of the warm key at popularity rank `k`. It is fixed, not
/// drawn, so every seed puts the same kernels at the same popularity:
/// under Zipf(1.0) the top ten keys carry half the traffic, and a drawn
/// source would let one seed's hot keys be large stand-ins and
/// another's small kernels. Every fourth rank is an inline kernel; the
/// others cycle through the stand-ins.
#[must_use]
pub fn warm_source(k: usize) -> usize {
    if k % 4 == 3 {
        STANDINS.len() + (k / 4) % INLINE_KERNELS.len()
    } else {
        (3 * (k / 4) + k % 4) % STANDINS.len()
    }
}

/// The warm workload's key set: [`WARM_KEYS`] distinct request bodies,
/// key `k` built on [`warm_source`]`(k)`.
#[must_use]
pub fn warm_set(seed: u64) -> Vec<String> {
    let base = seed_base(seed, 2);
    (0..WARM_KEYS)
        .map(|k| {
            let mut rng = stream(seed, 0x2000_0000 + k as u64);
            request_body(&mut rng, warm_source(k), base | k as u64)
        })
        .collect()
}

/// Zipf(s) popularity over `n` ranks: rank `k` has weight `1/(k+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank a uniform draw `u ∈ [0, 1)` selects.
    #[must_use]
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Warm-set indices of the warm workload's requests `first..first + count`,
/// drawn Zipf(1.0).
#[must_use]
pub fn warm_ranks(seed: u64, first: usize, count: usize) -> Vec<usize> {
    let zipf = Zipf::new(WARM_KEYS, 1.0);
    (first..first + count)
        .map(|i| {
            let u = (stream(seed, 0x3000_0000 + i as u64).next_u64() >> 11) as f64
                / (1u64 << 53) as f64;
            zipf.rank(u)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_a_pure_function_of_the_seed() {
        assert_eq!(cold_bodies(7, 0, 64), cold_bodies(7, 0, 64));
        assert_eq!(cold_bodies(7, 10, 5), cold_bodies(7, 0, 15)[10..]);
        assert_ne!(cold_bodies(7, 0, 64), cold_bodies(8, 0, 64));
        assert_eq!(warm_set(3), warm_set(3));
        assert_ne!(warm_set(3), warm_set(4));
        assert_eq!(warm_ranks(3, 0, 500), warm_ranks(3, 0, 500));
        assert_ne!(warm_ranks(3, 0, 500), warm_ranks(4, 0, 500));
    }

    #[test]
    fn cold_keys_are_distinct_and_the_mix_has_its_shape() {
        let bodies = cold_bodies(11, 0, 2000);
        let distinct: std::collections::HashSet<&String> = bodies.iter().collect();
        assert_eq!(distinct.len(), bodies.len());
        let standins = bodies
            .iter()
            .filter(|b| b.starts_with("\"benchmark\""))
            .count();
        let share = standins as f64 / bodies.len() as f64;
        assert!((0.70..0.80).contains(&share), "stand-in share {share}");
        for body in &bodies[..50] {
            let line = with_id(1, body);
            assert!(
                bsched_serve::parse_request(&line).is_ok(),
                "daemon rejects {line}"
            );
        }
        let warm: std::collections::HashSet<String> = warm_set(11).into_iter().collect();
        assert_eq!(warm.len(), WARM_KEYS);
        let sources: Vec<usize> = (0..WARM_KEYS).map(warm_source).collect();
        let all = STANDINS.len() + INLINE_KERNELS.len();
        assert!(sources.iter().all(|&s| s < all));
        let inline = sources.iter().filter(|&&s| s >= STANDINS.len()).count();
        assert_eq!(inline, WARM_KEYS / 4);
        for s in 0..all {
            assert!(sources.contains(&s), "source {s} unused");
        }
    }

    #[test]
    fn zipf_favours_low_ranks_in_proportion() {
        let zipf = Zipf::new(128, 1.0);
        assert_eq!(zipf.rank(0.0), 0);
        assert_eq!(zipf.rank(0.999_999_9), 127);
        let ranks = warm_ranks(5, 0, 20_000);
        let top = ranks.iter().filter(|&&r| r == 0).count() as f64 / ranks.len() as f64;
        // H(128) ≈ 5.43, so rank 0 carries ≈ 18.4% of requests.
        assert!((0.165..0.205).contains(&top), "rank-0 share {top}");
        assert!(ranks.iter().all(|&r| r < 128));
    }
}
