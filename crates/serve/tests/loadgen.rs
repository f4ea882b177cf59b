//! `bsched-loadgen` end to end: its report layout (the keys CI's
//! gates and the committed `BENCH_serve.json` read) and its exit-status
//! verdicts. Each run spawns its own in-process daemon on an ephemeral
//! port.

use std::process::{Command, Output};

use bsched_analyze::json::{self, Json};

fn loadgen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bsched-loadgen"))
        .args(args)
        .output()
        .expect("run bsched-loadgen")
}

fn keys(v: &Json) -> Vec<&str> {
    v.as_object()
        .unwrap_or_else(|| panic!("not an object: {v:?}"))
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn first(v: &Json, section: &str) -> Json {
    v.get(section)
        .and_then(Json::as_array)
        .and_then(<[Json]>::first)
        .unwrap_or_else(|| panic!("{section} has no entries"))
        .clone()
}

#[test]
fn report_sections_keep_their_keys() {
    let out = loadgen(&[
        "--spawn",
        "--passes",
        "2",
        "--burst",
        "4",
        "--sweep",
        "1,2",
        "--expect-hit-rate",
        "90",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let report = json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("JSON report");

    assert_eq!(
        keys(&report),
        [
            "bench",
            "system",
            "schedulers",
            "clients",
            "passes",
            "final_stats",
            "burst",
            "sweep"
        ]
    );
    assert_eq!(
        report.get("system").and_then(Json::as_str),
        Some("L80(2,5)")
    );
    let schedulers = report.get("schedulers").and_then(Json::as_array);
    assert_eq!(
        schedulers.map(|s| s.iter().filter_map(Json::as_str).collect::<Vec<_>>()),
        Some(vec!["balanced"])
    );
    let pass = first(&report, "passes");
    assert_eq!(
        keys(&pass),
        [
            "pass",
            "requests",
            "answered",
            "ok",
            "cached",
            "errors",
            "overloaded",
            "timeouts",
            "dropped",
            "malformed",
            "wall_s",
            "throughput_rps",
            "p50_us",
            "p95_us",
            "p99_us",
            "cache_hit_rate"
        ]
    );
    let stats = report.get("final_stats").expect("final_stats");
    for key in [
        "requests",
        "queue_depth",
        "p50_us",
        "p95_us",
        "p99_us",
        "cache_hits",
    ] {
        assert!(stats.get(key).is_some(), "final_stats.{key} missing");
    }
    assert_eq!(
        keys(report.get("burst").expect("burst")),
        ["requests", "ok", "overloaded", "other", "dropped"]
    );
    assert_eq!(
        keys(&first(&report, "sweep")),
        [
            "concurrency",
            "requests",
            "answered",
            "ok",
            "cached",
            "errors",
            "overloaded",
            "timeouts",
            "dropped",
            "malformed",
            "wall_s",
            "throughput_rps",
            "p50_us",
            "p95_us",
            "p99_us"
        ]
    );
}

#[test]
fn a_missed_hit_rate_exits_1() {
    let out = loadgen(&["--spawn", "--passes", "2", "--expect-hit-rate", "101"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn a_removed_flag_exits_2() {
    let out = loadgen(&["--spawn", "--schedulers", "x"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}
