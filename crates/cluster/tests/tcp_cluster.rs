//! End-to-end commit over the TCP transport.
//!
//! A bare TCP client — no transport at all, just the wire format, exactly
//! what `planet-load` speaks — connects to site 0, submits a transaction to
//! coordinator `n + 0` and reads its progress and outcome off the same
//! connection, exercising the learned-reply-route path. The servers are the
//! test's one input: a `LiveCluster` hosting all three sites over tcp (three
//! planetd-style nodes, each with its own listener and reactor), or three
//! real `planetd` processes started with default flags.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use planet_cluster::wire;
use planet_cluster::{Envelope, LiveCluster, PlaneConfig};
use planet_mdcc::{ClusterConfig, Msg, Outcome, Protocol, ReplicaActor, TxnSpec};
use planet_sim::ActorId;
use planet_storage::{Key, WriteOp};

const N: usize = 3;

/// The bare wire-format client: submit one write to the coordinator of
/// site 0 of an `N`-site, one-shard deployment and wait for its outcome.
fn commit_through(site0: SocketAddr) {
    let client_id = ActorId(100);
    let coordinator0 = ActorId(N as u32);
    let mut conn = TcpStream::connect(site0).expect("connect to site 0");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let spec = TxnSpec::write_one(Key::new("tcp-key"), WriteOp::add(5));
    wire::write_frame(
        &mut conn,
        &Envelope {
            from: client_id,
            to: coordinator0,
            msg: Msg::Submit {
                spec,
                reply_to: client_id,
                tag: 42,
            },
        },
    )
    .expect("submit over tcp");

    let mut outcome = None;
    let mut progress_events = 0;
    let mut reader = wire::FrameReader::new();
    while outcome.is_none() {
        let env = reader
            .next_frame(&mut conn)
            .expect("read reply frame")
            .expect("connection stays open until the outcome");
        assert_eq!(env.to, client_id, "replies are addressed to the client");
        match env.msg {
            Msg::Progress { tag, .. } => {
                assert_eq!(tag, 42);
                progress_events += 1;
            }
            Msg::TxnDone {
                tag, outcome: o, ..
            } => {
                assert_eq!(tag, 42);
                outcome = Some(o);
            }
            other => panic!("unexpected message for client: {other:?}"),
        }
    }
    assert_eq!(outcome, Some(Outcome::Committed), "the write must commit");
    assert!(progress_events > 0, "progress flows before the outcome");
}

#[test]
fn commit_round_trips_over_tcp() {
    let loopback: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let cluster = LiveCluster::builder(ClusterConfig::new(N, Protocol::Fast))
        .tcp(vec![loopback; N], 0..N)
        .plane(PlaneConfig::default().with_workers(1))
        .build();
    commit_through(cluster.addr(0).unwrap());

    // The committed value must have propagated to every replica.
    std::thread::sleep(Duration::from_millis(200));
    let harvest = cluster.shutdown();
    for site in 0..N {
        let replica: &ReplicaActor = harvest.actor_as(ActorId(site as u32)).unwrap();
        let value = replica.storage().read(&Key::new("tcp-key")).value;
        assert_eq!(value.as_int(), Some(5), "replica {site} converged");
    }
}

/// Kills its `planetd` children when the test ends, pass or fail.
struct Children(Vec<Child>);

impl Drop for Children {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Start one default-flag `planetd` per site on fresh loopback ports and
/// wait for their serving lines; `None` when one `cannot bind` (a port was
/// taken between its release here and planetd's bind).
fn start_planetds() -> Option<(Vec<SocketAddr>, Children)> {
    // Bound all at once, so they differ, to learn them; released for planetd.
    let listeners: Vec<TcpListener> = (0..N)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect();
    drop(listeners);
    let list = addrs
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut children = Children(Vec::new());
    for site in 0..N {
        let child = Command::new(env!("CARGO_BIN_EXE_planetd"))
            .args(["--site", &site.to_string(), "--addrs", &list])
            .args(["--run-secs", "60"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("start planetd");
        children.0.push(child);
    }
    // Each process prints one line once its listener is bound.
    for child in &mut children.0 {
        let mut line = String::new();
        BufReader::new(child.stdout.as_mut().expect("piped stdout"))
            .read_line(&mut line)
            .expect("planetd's serving line");
        if line.is_empty() {
            let stderr = child.stderr.take().map(std::io::read_to_string);
            let stderr = stderr.and_then(Result::ok).unwrap_or_default();
            assert!(stderr.contains("cannot bind"), "planetd exited: {stderr}");
            return None;
        }
        assert!(line.contains("serving"), "unexpected first line: {line:?}");
    }
    Some((addrs, children))
}

/// The deployment the README starts: three `planetd` processes given only
/// `--site` and `--addrs` (and a `--run-secs` backstop, so that a killed
/// test run leaves nothing behind). Every default a process picks for itself
/// must agree with its peers' and with a client that assumes one shard —
/// which a shard count derived from the local core count did not. A lost
/// port race is retried on fresh ports, three attempts in all.
#[test]
fn commit_round_trips_through_default_flag_planetd_processes() {
    let (addrs, _children) = (0..3)
        .find_map(|_| start_planetds())
        .expect("planetd binds fresh ports within three attempts");
    commit_through(addrs[0]);
}

/// Run `planetd` with `args` until it exits — killed after 10 s, so one
/// that should have exited fails the test instead of hanging it — and
/// return its exit code and stderr.
fn planetd_exit(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_planetd"))
        .args(args)
        .stderr(Stdio::piped())
        .spawn()
        .expect("start planetd");
    for _ in 0..500 {
        if child.try_wait().expect("poll planetd").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    let out = child.wait_with_output().expect("planetd's stderr");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn planetd_refuses_bad_flags_and_a_held_address() {
    // A flag planetd cannot use is a usage error (exit 2), never a default:
    // `--run-secs 5s` once meant "serve forever".
    let one_site = ["--site", "0", "--addrs", "127.0.0.1:0"];
    for bad in [["--workers", "0"], ["--run-secs", "5s"]] {
        let (code, stderr) = planetd_exit(&[&one_site[..], &bad[..]].concat());
        assert_eq!(code, Some(2), "{bad:?}: {stderr}");
        assert!(stderr.starts_with("usage: planetd"), "{bad:?}: {stderr}");
    }
    // An address another listener holds cannot be served (exit 1).
    let held = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = held.local_addr().expect("local addr").to_string();
    let (code, stderr) = planetd_exit(&["--site", "0", "--addrs", &addr, "--run-secs", "5"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("cannot bind"), "{stderr}");
}
