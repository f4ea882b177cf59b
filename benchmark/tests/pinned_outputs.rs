//! The pinned digests gate a run: a tampered one must fail it, and the
//! pinned tuner winners are the ones the repository reports.

use std::time::Duration;

use bsched_benchmark::check::{Expected, TABLES_SEED};
use bsched_benchmark::offline::run_tables;
use bsched_benchmark::RunConfig;

#[test]
fn a_tampered_digest_fails_the_run() {
    let pinned = include_str!("../expected/tables.txt");
    let line = pinned
        .lines()
        .find(|l| l.starts_with("MDG "))
        .expect("MDG is pinned");
    let (name, digest) = line.split_once(' ').expect("NAME DIGEST");
    let first = if digest.starts_with('0') { "1" } else { "0" };
    let flipped = format!("{first}{}", &digest[1..]);
    let mut tampered = Expected::pinned();
    tampered.load(
        "tables",
        &pinned.replace(line, &format!("{name} {flipped}")),
    );

    let cfg = RunConfig {
        workload: "tables".to_owned(),
        seed: TABLES_SEED,
        window: Duration::from_millis(200),
        trace: false,
        smoke: true,
        out_dir: std::env::temp_dir(),
    };
    let outcome = run_tables(&cfg, &tampered);
    assert!(!outcome.correct(), "a tampered digest must fail the run");
    assert_eq!(
        outcome.mismatches.len(),
        1,
        "only the tampered column may differ: {:?}",
        outcome.mismatches
    );
    assert!(
        outcome.mismatches[0].contains("tables/MDG"),
        "{:?}",
        outcome.mismatches
    );
    assert!(outcome.result_line().starts_with("{\"correct\":false,"));
}

#[test]
fn pinned_tune_winners_are_the_committed_policies() {
    let report = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCH_tune.json"),
    )
    .expect("BENCH_tune.json at the repository root");
    let v = bsched_analyze::json::parse(&report).expect("valid JSON");
    let expected = Expected::pinned();
    let results = v
        .get("results")
        .and_then(|r| r.as_array())
        .expect("results");
    assert_eq!(results.len(), 8);
    for r in results {
        let name = r.get("name").and_then(|n| n.as_str()).expect("name");
        let policy = r.get("policy").and_then(|p| p.as_str()).expect("policy");
        let pinned = expected
            .get("tune", name)
            .expect("every stand-in is pinned");
        assert_eq!(pinned.split(' ').next(), Some(policy), "{name}");
    }
}
