//! The `bsched` binary as a process: flag validation and signal
//! handling, which only show end to end.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn bsched() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bsched"))
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
