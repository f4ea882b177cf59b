//! The `bsched` binary and the table binaries as processes: flag and
//! environment validation and signal handling, which only show end to
//! end.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn bsched() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bsched"))
}

/// A `bsched-bench` binary from the target directory `bsched` was built
/// into, built first when this suite runs without the bench crate's.
fn table_binary(name: &str) -> Command {
    let bsched = Path::new(env!("CARGO_BIN_EXE_bsched"));
    let path = bsched.with_file_name(name);
    if !path.exists() {
        let mut build = Command::new(env!("CARGO"));
        build.args(["build", "-q", "-p", "bsched-bench", "--bin", name]);
        if bsched.parent().is_some_and(|dir| dir.ends_with("release")) {
            build.arg("--release");
        }
        assert!(build.status().expect("run cargo").success(), "build {name}");
    }
    Command::new(path)
}

#[test]
fn a_bad_variable_stops_a_binary_before_any_table() {
    let compare = || {
        let mut cmd = bsched();
        cmd.args([
            "compare",
            concat!(env!("CARGO_MANIFEST_DIR"), "/kernels/daxpy.bsk"),
            "--system",
            "N(3,2)",
            "--runs",
            "2",
        ]);
        cmd
    };
    let cases = [
        (table_binary("table2"), "BSCHED_VALIDATE", "ful"),
        (table_binary("table2"), "BSCHED_THREADS", "0"),
        (table_binary("table4"), "BSCHED_ALLOC", "usage-count"),
        (compare(), "BSCHED_CYCLE_BUDGET", "abc"),
        (compare(), "BSCHED_ANALYZE", "strcit"),
    ];
    for (mut cmd, var, value) in cases {
        let out = cmd
            .env(var, value)
            .env("BSCHED_RUNS", "2")
            .output()
            .expect("run binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{var}={value}: {stderr}");
        assert!(out.stdout.is_empty(), "{var}={value} printed output");
        assert!(
            stderr.contains(&format!("{var}: invalid value {value:?}")),
            "{var}={value}: {stderr}"
        );
    }
}

#[test]
fn tune_rejects_a_flag_it_does_not_know() {
    let out = bsched()
        .args(["tune", "--driver", "beam"])
        .output()
        .expect("run bsched");
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --driver"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn a_router_exits_promptly_on_sigterm() {
    // Bind-then-drop gives a shard address nothing listens on: the
    // router's prober keeps probing it, which is the thread that used
    // to outlive the signal.
    let dead = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("ephemeral port")
        .to_string();
    let mut child = bsched()
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--route",
            &dead,
            "--probe-interval-ms",
            "50",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn router");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr"));
    let mut line = String::new();
    while !line.contains("routing on") {
        line.clear();
        let n = stderr.read_line(&mut line).expect("read stderr");
        assert!(n > 0, "router exited before listening");
    }
    // Keep draining stderr so the router never blocks on a full pipe.
    let drain = std::thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));

    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(status.success());
    let started = Instant::now();
    let exited = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break Some(status);
        }
        if started.elapsed() > Duration::from_secs(5) {
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    if exited.is_none() {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = drain.join();
    let status = exited.expect("router still running 5 s after SIGTERM");
    assert!(status.success(), "{status:?}");
}
