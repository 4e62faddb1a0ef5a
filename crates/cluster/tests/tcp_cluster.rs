//! End-to-end commit over the TCP transport.
//!
//! A bare TCP client — no transport at all, just the wire format, exactly
//! what `planet-load` speaks — connects to site 0, submits a transaction to
//! coordinator `n + 0` and reads its progress and outcome off the same
//! connection, exercising the learned-reply-route path. The servers are the
//! test's one input: three in-process "planetd"s (three `TcpTransport`s
//! with their own listeners and reactors, each hosting one replica and one
//! coordinator), or three real `planetd` processes started with default
//! flags.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use planet_cluster::wire;
use planet_cluster::{mailbox, Clock, Envelope, PlaneConfig, Reactor, TcpTransport, Transport};
use planet_mdcc::{ClusterConfig, CoordinatorActor, Msg, Outcome, Protocol, ReplicaActor, TxnSpec};
use planet_sim::{Actor, ActorId, SiteId};
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
    let n = N;
    let config = ClusterConfig::new(n, Protocol::Fast);
    let clock = Clock::new();
    let replica_ids: Vec<ActorId> = (0..n).map(|i| ActorId(i as u32)).collect();

    // One transport + listener per site.
    let transports: Vec<Arc<TcpTransport>> = (0..n).map(|_| TcpTransport::new()).collect();
    let addrs: Vec<_> = transports
        .iter()
        .map(|t| t.listen("127.0.0.1:0".parse().unwrap()).expect("bind"))
        .collect();
    for t in &transports {
        for (site, addr) in addrs.iter().enumerate() {
            t.add_route(site as u32, *addr);
            t.add_route((n + site) as u32, *addr);
        }
    }

    // Site i hosts replica i and coordinator n+i on a reactor of its own.
    let plane = PlaneConfig::default().with_workers(1);
    let mut nodes = Vec::new();
    let mut reactors = Vec::new();
    for (site, transport) in transports.iter().enumerate() {
        let reactor = Reactor::new(clock, plane, 7);
        let replica: Box<dyn Actor<Msg>> =
            Box::new(ReplicaActor::new(config.clone(), replica_ids.clone(), 0));
        let coordinator: Box<dyn Actor<Msg>> = Box::new(CoordinatorActor::new(
            config.clone(),
            replica_ids.clone(),
            SiteId(site as u8),
        ));
        for (id, actor) in [(site as u32, replica), ((n + site) as u32, coordinator)] {
            let (tx, rx) = mailbox(plane.mailbox_capacity);
            transport.host(id, tx.clone());
            nodes.push(reactor.spawn(
                ActorId(id),
                SiteId(site as u8),
                actor,
                tx,
                rx,
                transport.clone() as Arc<dyn Transport>,
            ));
        }
        reactors.push(reactor);
    }

    commit_through(addrs[0]);

    // The committed value must have propagated to every replica.
    std::thread::sleep(Duration::from_millis(200));
    for node in nodes {
        let (actor, _metrics) = node.stop_and_join();
        let any: &dyn std::any::Any = actor.as_ref();
        if let Some(replica) = any.downcast_ref::<ReplicaActor>() {
            let value = replica.storage().read(&Key::new("tcp-key")).value;
            assert_eq!(
                value.as_int(),
                Some(5),
                "replica converged to the committed value"
            );
        }
    }
    for reactor in &reactors {
        reactor.shutdown();
    }
    for t in &transports {
        t.stop();
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

/// The deployment the README starts: three `planetd` processes given only
/// `--site` and `--addrs` (and a `--run-secs` backstop, so that a killed
/// test run leaves nothing behind). Every default a process picks for itself
/// must agree with its peers' and with a client that assumes one shard —
/// which a shard count derived from the local core count did not.
#[test]
fn commit_round_trips_through_default_flag_planetd_processes() {
    // Three free loopback ports: bound (all at once, so they differ) to
    // learn them, released for planetd.
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
        assert!(line.contains("serving"), "unexpected first line: {line:?}");
    }
    commit_through(addrs[0]);
}

#[test]
fn planetd_refuses_zero_workers() {
    let out = Command::new(env!("CARGO_BIN_EXE_planetd"))
        .args(["--site", "0", "--addrs", "127.0.0.1:1", "--workers", "0"])
        .args(["--run-secs", "1"]) // a planetd that accepts the flag must not hang the test
        .output()
        .expect("run planetd");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("usage: planetd"), "{stderr}");
}
