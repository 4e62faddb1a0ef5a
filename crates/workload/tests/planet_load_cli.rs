//! `planet-load`'s exit status: a run that could not measure anything, or
//! was asked for a runtime or an option it does not have, must say so and fail.

use std::net::TcpListener;
use std::process::Command;

#[test]
fn a_run_with_nothing_to_talk_to_exits_non_zero() {
    // A port that was just free: bound to learn it, closed again.
    let closed = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("a free loopback port");
    let out = Command::new(env!("CARGO_BIN_EXE_planet-load"))
        .args(["--addrs", &closed.to_string(), "--secs", "1"])
        .output()
        .expect("run planet-load");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no transaction committed"), "{stderr}");
}

#[test]
fn zero_workers_is_refused_with_the_usage_line() {
    // `--workers 0` asks for a runtime that does not exist. `--trace` is
    // not an option: each planetd's trace carries its coordinator's
    // outcomes.
    for args in [["--workers", "0"], ["--trace", "x"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_planet-load"))
            .args(["--addrs", "127.0.0.1:1", "--secs", "1"])
            .args(args)
            .output()
            .expect("run planet-load");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("usage: planet-load"), "{stderr}");
    }
}
