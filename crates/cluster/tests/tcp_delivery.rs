//! Socket I/O on the reactor's workers: a peer that stops reading costs a
//! connection, never a worker, and once every reactor has adopted its
//! transport no thread of the transport's own is left. An adopted
//! transport stages its frames and writes them when its worker parks or
//! the slack passes, and frames staged by two tasks leave in one write.
//! And the transport's route table: one batch's hosted and remote
//! destinations each keep their order, a frame cut by a short read is
//! delivered once its rest arrives, an address that refused a connect is
//! not dialled again within the backoff, and each connection's stamps
//! never go backwards.
//!
//! This file is a workload for the ThreadSanitizer CI job, beside
//! `channel_stress.rs` and `fabric_delivery.rs`: tsan observes the poll,
//! the connections' write queues and the adoption handoff.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use planet_cluster::node::{Clock, Packet};
use planet_cluster::plane::{mailbox, MailboxReceiver, PlaneConfig};
use planet_cluster::tcp::REFUSED_BACKOFF;
use planet_cluster::{wire, Envelope, LiveCluster, NodeHandle, Reactor, TcpTransport, Transport};
use planet_mdcc::{ClusterConfig, Msg, Outcome, Protocol, TxnSpec};
use planet_sim::{Actor, ActorId, Context, SiteId};
use planet_storage::{Key, TxnId, Value, WriteOp};

/// Held by every test here for its whole run: one reads the threads of the
/// whole process.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

const PINGER: ActorId = ActorId(1);
const PONGER: ActorId = ActorId(2);
/// Routed to a peer that accepts and never reads.
const STALLED: ActorId = ActorId(50);

/// One 64 KiB write to the stalled peer per round.
fn big(round: u64) -> Msg {
    Msg::Apply {
        key: Key::new("stalled"),
        version: round,
        value: Value::bytes(vec![7u8; 64 << 10]),
        txn: TxnId::new(0, round),
    }
}

/// Pings its partner on every answer, reporting the round, and writes a
/// large frame to the stalled peer each round.
struct Pinger {
    round: u64,
    rounds: Sender<u64>,
}

impl Actor<Msg> for Pinger {
    fn on_message(&mut self, _from: ActorId, _msg: Msg, ctx: &mut Context<'_, Msg>) {
        self.round += 1;
        let _ = self.rounds.send(self.round);
        ctx.send(STALLED, big(self.round));
        ctx.send(
            PONGER,
            Msg::ClientTimer {
                kind: 0,
                tag: self.round,
            },
        );
    }
}

/// Answers every ping.
struct Ponger;

impl Actor<Msg> for Ponger {
    fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        ctx.send(from, msg);
    }
}

/// Accepts every connection on `listener` and holds it unread until `done`.
fn hold_unread(listener: TcpListener, done: Arc<AtomicBool>) -> thread::JoinHandle<usize> {
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    thread::spawn(move || {
        let mut held: Vec<TcpStream> = Vec::new();
        while !done.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => held.push(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(2));
                }
                Err(e) => panic!("accept: {e}"),
            }
        }
        held.len()
    })
}

/// A peer that accepts a connection and never reads stalls nobody: on a
/// one-worker reactor, a pair of actors keeps exchanging messages, each
/// round within 500 ms, while one of them writes 64 KiB a round to that
/// peer. The socket fills, the rest queues on the connection, and once the
/// queue passes its bound the connection is shut down and its frames
/// counted as dropped.
#[test]
fn a_peer_that_stops_reading_stalls_no_worker() {
    let _host = serial();
    let raw = TcpListener::bind("127.0.0.1:0").expect("bind the stalled peer");
    let raw_addr: SocketAddr = raw.local_addr().expect("its address");
    let done = Arc::new(AtomicBool::new(false));
    let holder = hold_unread(raw, Arc::clone(&done));

    let transport = TcpTransport::new();
    transport.add_route(STALLED.0, raw_addr);
    let reactor = Reactor::new(Clock::new(), PlaneConfig::default().with_workers(1), 3);
    let (rounds_tx, rounds) = channel();
    let spawn = |id: ActorId, actor: Box<dyn Actor<Msg>>| {
        let (tx, rx) = mailbox(PlaneConfig::default().mailbox_capacity);
        transport.host(id.0, tx.clone());
        let shared = transport.clone() as Arc<dyn Transport>;
        reactor.spawn(id, SiteId(0), actor, tx, rx, shared)
    };
    let ponger = spawn(PONGER, Box::new(Ponger));
    let pinger = spawn(
        PINGER,
        Box::new(Pinger {
            round: 0,
            rounds: rounds_tx,
        }),
    );
    pinger.inject(Msg::ClientTimer { kind: 0, tag: 0 });

    // Until the stalled connection is dropped, and 200 rounds past that.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut after_drop = 0;
    while after_drop < 200 {
        assert!(Instant::now() < deadline, "the bound was never passed");
        let round = rounds
            .recv_timeout(Duration::from_millis(500))
            .unwrap_or_else(|e| panic!("no round within 500 ms ({e}); a worker is stalled"));
        if transport.dropped() > 0 {
            after_drop += 1;
        }
        assert!(round > 0);
    }
    pinger.stop_and_join();
    ponger.stop_and_join();
    transport.stop();
    reactor.shutdown();
    done.store(true, Ordering::SeqCst);
    assert!(holder.join().expect("holder") >= 1);
}

/// A closed-loop client committing increments until `done` is set.
struct Incrementer {
    coordinator: ActorId,
    key: Key,
    done: Arc<AtomicBool>,
    committed: Sender<()>,
}

impl Incrementer {
    fn submit(&self, ctx: &mut Context<'_, Msg>) {
        let spec = TxnSpec::write_one(self.key.clone(), WriteOp::add(1));
        let reply_to = ctx.self_id();
        ctx.send(
            self.coordinator,
            Msg::Submit {
                spec,
                reply_to,
                tag: 0,
            },
        );
    }
}

impl Actor<Msg> for Incrementer {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.submit(ctx);
    }

    fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        let Msg::TxnDone { outcome, .. } = msg else {
            return;
        };
        if outcome == Outcome::Committed {
            let _ = self.committed.send(());
        }
        if !self.done.load(Ordering::SeqCst) {
            self.submit(ctx);
        }
    }
}

/// The names of this process's threads.
fn thread_names() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("read /proc/self/task");
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

/// Under load on a tcp cluster of three hosted sites and a client node,
/// every socket is read on a reactor worker: no `planet-tcp-*` thread is
/// left once each node's reactor has adopted its transport.
#[test]
fn no_tcp_thread_is_left_once_the_reactors_adopt_their_transports() {
    let _host = serial();
    let any = "127.0.0.1:0".parse().expect("loopback address");
    let mut cluster = LiveCluster::builder(ClusterConfig::new(3, Protocol::Fast))
        .tcp(vec![any; 3], 0..3)
        .plane(PlaneConfig::default().with_workers(2))
        .seed(9)
        .build();
    let done = Arc::new(AtomicBool::new(false));
    let (committed_tx, committed) = channel();
    for site in 0..3 {
        let coordinator = cluster.coordinator(site);
        let clients: Vec<Box<dyn Actor<Msg>>> = (0..8)
            .map(|c| {
                Box::new(Incrementer {
                    coordinator,
                    key: Key::new(format!("t{site}-{c}")),
                    done: Arc::clone(&done),
                    committed: committed_tx.clone(),
                }) as _
            })
            .collect();
        cluster.spawn_client_pool(site, clients);
    }
    drop(committed_tx);
    for _ in 0..600 {
        committed
            .recv_timeout(Duration::from_secs(10))
            .expect("the cluster commits");
    }
    let names = thread_names();
    done.store(true, Ordering::SeqCst);
    cluster.shutdown();
    let tcp: Vec<_> = names
        .iter()
        .filter(|n| n.starts_with("planet-tcp"))
        .collect();
    assert!(tcp.is_empty(), "tcp threads left under load: {tcp:?}");
    let workers = names
        .iter()
        .filter(|n| n.starts_with("planet-reactor"))
        .count();
    assert_eq!(workers, 4 * 2, "two workers on each of four nodes");
}

/// A numbered message from `from` to `to`.
fn numbered(from: ActorId, to: ActorId, tag: u64) -> Envelope {
    Envelope {
        from,
        to,
        msg: Msg::ClientTimer { kind: from.0, tag },
    }
}

/// The tags of the next `n` envelopes in `rx`.
fn tags(rx: &MailboxReceiver, n: usize) -> Vec<u64> {
    (0..n)
        .map(|_| {
            match rx
                .recv_timeout(Duration::from_secs(10))
                .expect("every envelope sent arrives")
            {
                Packet::Env(Envelope {
                    msg: Msg::ClientTimer { tag, .. },
                    ..
                }) => tag,
                _ => panic!("only numbered envelopes are sent"),
            }
        })
        .collect()
}

/// One `send_many` that interleaves two hosted and two remote destinations
/// resolves each once and delivers each in batch order: the hosted ones as
/// mailbox runs, the remote ones down one coalesced connection.
#[test]
fn one_batch_to_hosted_and_remote_destinations_keeps_each_order() {
    let _host = serial();
    let (near, far) = (TcpTransport::new(), TcpTransport::new());
    let any = "127.0.0.1:0".parse().expect("loopback address");
    let far_addr = far.listen(any).expect("bind a loopback port");
    let dests = [ActorId(11), ActorId(21), ActorId(12), ActorId(22)];
    let mut inboxes = Vec::new();
    for (i, dst) in dests.iter().enumerate() {
        let (tx, rx) = mailbox(4096);
        if i % 2 == 0 {
            near.host(dst.0, tx);
        } else {
            far.host(dst.0, tx);
            near.add_route(dst.0, far_addr);
        }
        inboxes.push(rx);
    }
    const PER_DEST: u64 = 300;
    let mut next = [0u64; 4];
    let mut batch = Vec::new();
    let mut rng = planet_sim::DetRng::new(5);
    while next.iter().any(|&n| n < PER_DEST) {
        let i = rng.index(4);
        let Some(tag) = next.get_mut(i).filter(|n| **n < PER_DEST) else {
            continue;
        };
        batch.push(numbered(PINGER, dests[i], *tag));
        *tag += 1;
        if batch.len() == 1 + rng.index(40) {
            near.send_many(&mut batch);
        }
    }
    near.send_many(&mut batch);
    let want: Vec<u64> = (0..PER_DEST).collect();
    for (dst, rx) in dests.iter().zip(&inboxes) {
        assert_eq!(tags(rx, PER_DEST as usize), want, "to {dst:?}");
    }
    assert_eq!((near.dropped(), far.dropped()), (0, 0));
    assert_eq!(
        near.connects(),
        1,
        "one connection carries both remote actors"
    );
    near.stop();
    far.stop();
}

/// A frame whose bytes arrive in two writes, far enough apart that the
/// first read comes back short, is delivered once the rest arrives, and so
/// is the frame behind it.
#[test]
fn a_frame_completed_after_a_short_read_is_delivered() {
    let _host = serial();
    let transport = TcpTransport::new();
    let any = "127.0.0.1:0".parse().expect("loopback address");
    let addr = transport.listen(any).expect("bind a loopback port");
    let (tx, rx) = mailbox(64);
    transport.host(PONGER.0, tx);
    let mut frames = Vec::new();
    for tag in 0..2 {
        wire::encode_frame_into(&numbered(PINGER, PONGER, tag), &mut frames);
    }
    let mut peer = TcpStream::connect(addr).expect("connect to the transport");
    peer.set_nodelay(true).expect("no delay");
    let cut = 5;
    peer.write_all(&frames[..cut]).expect("the frame's head");
    thread::sleep(Duration::from_millis(100));
    assert!(
        rx.recv_timeout(Duration::from_millis(50)).is_err(),
        "half a frame is not an envelope"
    );
    peer.write_all(&frames[cut..]).expect("the rest");
    assert_eq!(tags(&rx, 2), [0, 1]);
    assert_eq!(transport.dropped(), 0);
    transport.stop();
}

/// 1 000 sends to a port nobody listens on are dropped, and dial it at
/// most once per backoff window: the first fails, and the rest of its
/// window costs no system call.
#[test]
fn sends_to_a_refused_port_connect_at_most_once_per_backoff() {
    let _host = serial();
    let dead = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a port");
        listener.local_addr().expect("its address")
    };
    let transport = TcpTransport::new();
    transport.add_route(STALLED.0, dead);
    let start = Instant::now();
    let mut batch = Vec::new();
    for tag in 0..1_000 {
        if tag % 2 == 0 {
            transport.send(numbered(PINGER, STALLED, tag));
        } else {
            batch.push(numbered(PINGER, STALLED, tag));
            transport.send_many(&mut batch);
        }
    }
    let windows = start.elapsed().as_nanos() / REFUSED_BACKOFF.as_nanos() + 1;
    assert_eq!(transport.dropped(), 1_000);
    let connects = u128::from(transport.connects());
    assert!(
        (1..=windows).contains(&connects),
        "{connects} connects in {windows} backoff windows"
    );
    transport.stop();
}

/// Reports the sender and tag of every numbered message it receives.
struct Arrivals(Sender<(u32, u64)>);

impl Actor<Msg> for Arrivals {
    fn on_message(&mut self, from: ActorId, msg: Msg, _ctx: &mut Context<'_, Msg>) {
        if let Msg::ClientTimer { tag, .. } = msg {
            let _ = self.0.send((from.0, tag));
        }
    }
}

/// A connection's stamps never go backwards. A burst read off a connection
/// is stamped with one clock read in `TcpInner::deliver`, under the
/// connection's read lock, so two workers polling the same socket stamp
/// its bursts in the order they deliver them. The task's mailbox hands
/// packets out by stamp, ties in push order, so each connection's frames
/// arriving in the order they were written shows it: three peers write
/// numbered frames in bursts of one to eight, interleaved, to one actor on
/// a two-worker reactor that reads the sockets on both workers.
#[test]
fn each_connection_s_stamps_never_go_backwards() {
    let _host = serial();
    const PEERS: u32 = 3;
    const EACH: u64 = 3_000;
    let transport = TcpTransport::new();
    let any = "127.0.0.1:0".parse().expect("loopback address");
    let addr = transport.listen(any).expect("bind a loopback port");
    let reactor = Reactor::new(Clock::new(), PlaneConfig::default().with_workers(2), 43);
    let (arrived_tx, arrived) = channel();
    let (tx, rx) = mailbox(PlaneConfig::default().mailbox_capacity);
    transport.host(PONGER.0, tx.clone());
    let shared = transport.clone() as Arc<dyn Transport>;
    let handle = reactor.spawn(
        PONGER,
        SiteId(0),
        Box::new(Arrivals(arrived_tx)),
        tx,
        rx,
        shared,
    );
    let writers: Vec<_> = (0..PEERS)
        .map(|p| {
            thread::spawn(move || {
                let mut peer = TcpStream::connect(addr).expect("connect to the transport");
                peer.set_nodelay(true).expect("no delay");
                let mut rng = planet_sim::DetRng::new(u64::from(p));
                let mut tag = 0;
                while tag < EACH {
                    let mut frames = Vec::new();
                    for _ in 0..1 + rng.index(8) {
                        if tag < EACH {
                            let env = numbered(ActorId(10 + p), PONGER, tag);
                            wire::encode_frame_into(&env, &mut frames);
                            tag += 1;
                        }
                    }
                    peer.write_all(&frames).expect("a burst");
                    if rng.index(4) == 0 {
                        thread::sleep(Duration::from_micros(50));
                    }
                }
                peer
            })
        })
        .collect();
    let mut next = [0u64; PEERS as usize];
    for _ in 0..u64::from(PEERS) * EACH {
        let (from, tag) = arrived
            .recv_timeout(Duration::from_secs(10))
            .expect("every frame written arrives");
        let peer = (from - 10) as usize;
        assert_eq!(tag, next[peer], "peer {peer}'s frames reordered");
        next[peer] += 1;
    }
    let peers: Vec<TcpStream> = writers
        .into_iter()
        .map(|w| w.join().expect("writer"))
        .collect();
    handle.stop_and_join();
    transport.stop();
    reactor.shutdown();
    drop(peers);
    assert_eq!(transport.dropped(), 0);
}

/// Routed to a raw peer in the staging tests.
const RAW: ActorId = ActorId(60);

/// A one-worker reactor and a tcp transport that routes [`RAW`] to a raw
/// peer, which the reactor adopts with its first spawn.
struct Staging {
    reactor: Arc<Reactor>,
    transport: Arc<TcpTransport>,
    /// For each read of the raw peer that returned bytes: when, and how
    /// many.
    peer: Receiver<(Instant, usize)>,
    reader: thread::JoinHandle<()>,
}

impl Staging {
    /// The rig, with the reactor's slack at `slack_us`.
    fn new(slack_us: u64) -> Self {
        let plane = PlaneConfig {
            fabric_slack_us: slack_us,
            ..PlaneConfig::default()
        }
        .with_workers(1);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind the raw peer");
        let transport = TcpTransport::new();
        transport.add_route(RAW.0, listener.local_addr().expect("its address"));
        let (tx, peer) = channel();
        let reader = thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("the transport connects");
            let mut buf = [0u8; 1 << 16];
            while let Ok(n @ 1..) = conn.read(&mut buf) {
                let _ = tx.send((Instant::now(), n));
            }
        });
        Staging {
            reactor: Reactor::new(Clock::new(), plane, 61),
            transport,
            peer,
            reader,
        }
    }

    /// Spawn `actor` as `id`, hosted by the transport and sending through
    /// it.
    fn spawn(&self, id: ActorId, actor: Box<dyn Actor<Msg>>) -> NodeHandle {
        let (tx, rx) = mailbox(PlaneConfig::default().mailbox_capacity);
        self.transport.host(id.0, tx.clone());
        let shared = self.transport.clone() as Arc<dyn Transport>;
        self.reactor.spawn(id, SiteId(0), actor, tx, rx, shared)
    }

    /// Forward one message through `forward`: the instant it was sent and
    /// the instant the raw peer read it.
    fn forward_one(&self, forward: &NodeHandle, sent: &Receiver<Instant>) -> (Instant, Instant) {
        forward.inject(Msg::ClientTimer { kind: 0, tag: 0 });
        let wait = Duration::from_secs(2);
        let sent = sent.recv_timeout(wait).expect("the forwarder runs");
        let (arrived, _) = self
            .peer
            .recv_timeout(wait)
            .expect("the staged frame reaches the peer");
        (sent, arrived)
    }

    /// The transport's `(flushes, bytes)` once `bytes` bytes are counted:
    /// a write is counted just after it returns, so the peer may read it
    /// first.
    fn io_stats_at(&self, bytes: u64) -> (u64, u64) {
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.transport.io_stats().1 < bytes && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        self.transport.io_stats()
    }

    /// Stop `handles`, the transport (which closes the raw peer's
    /// connection) and the reactor.
    fn finish(self, handles: Vec<NodeHandle>) {
        for handle in handles {
            handle.stop_and_join();
        }
        self.transport.stop();
        self.reactor.shutdown();
        self.reader.join().expect("the raw peer");
    }
}

/// Forwards every message to [`RAW`], reporting the instant it did.
struct Forward(Sender<Instant>);

impl Actor<Msg> for Forward {
    fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        let _ = self.0.send(Instant::now());
        ctx.send(RAW, msg);
    }
}

/// Sleeps 1 ms per message and sends itself the next, `rounds` times,
/// keeping the one worker busy; reports its first and its last round.
struct Spinner {
    rounds: u32,
    started: bool,
    beats: Sender<Instant>,
}

impl Actor<Msg> for Spinner {
    fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if !std::mem::replace(&mut self.started, true) {
            let _ = self.beats.send(Instant::now());
        }
        thread::sleep(Duration::from_millis(1));
        self.rounds -= 1;
        if self.rounds == 0 {
            let _ = self.beats.send(Instant::now());
            return;
        }
        let me = ctx.self_id();
        ctx.send(me, msg);
    }
}

/// A frame staged while the one worker is kept busy, so that it never
/// parks, is written at a loop-top poll once it has waited the slack: it
/// reaches the raw peer within twice the slack, while the worker is still
/// busy.
#[test]
fn a_frame_staged_on_a_busy_worker_is_written_within_twice_the_slack() {
    let _host = serial();
    let slack = Duration::from_millis(100);
    let rig = Staging::new(slack.as_micros() as u64);
    let (sent_tx, sent) = channel();
    let forward = rig.spawn(PINGER, Box::new(Forward(sent_tx)));
    let (beats_tx, beats) = channel();
    let spinner = rig.spawn(
        PONGER,
        Box::new(Spinner {
            rounds: 1_000,
            started: false,
            beats: beats_tx,
        }),
    );
    // Connected first, on an idle worker.
    rig.forward_one(&forward, &sent);
    spinner.inject(Msg::ClientTimer { kind: 0, tag: 0 });
    let beat = || {
        beats
            .recv_timeout(Duration::from_secs(10))
            .expect("the spinner runs")
    };
    beat();
    let (staged, arrived) = rig.forward_one(&forward, &sent);
    let stopped = beat();
    assert!(
        arrived < stopped,
        "written at the park after {:?}, not while the worker was busy",
        arrived - staged
    );
    assert!(
        arrived - staged < 2 * slack,
        "reached the peer {:?} after it was staged (slack {slack:?})",
        arrived - staged
    );
    rig.finish(vec![forward, spinner]);
}

/// A frame staged by the last drive before the one worker runs out of
/// tasks is written as the worker parks, not when a long slack has passed
/// nor at the 500 ms idle backstop.
#[test]
fn a_frame_staged_before_the_worker_parks_is_written_at_the_park() {
    let _host = serial();
    let rig = Staging::new(10_000_000);
    let (sent_tx, sent) = channel();
    let forward = rig.spawn(PINGER, Box::new(Forward(sent_tx)));
    for _ in 0..3 {
        let (staged, arrived) = rig.forward_one(&forward, &sent);
        assert!(
            arrived - staged < Duration::from_millis(100),
            "reached the peer {:?} after it was staged",
            arrived - staged
        );
    }
    rig.finish(vec![forward]);
}

/// Blocks its worker on its first message until released.
struct Gate {
    entered: Sender<()>,
    release: Receiver<()>,
}

impl Actor<Msg> for Gate {
    fn on_message(&mut self, _from: ActorId, _msg: Msg, _ctx: &mut Context<'_, Msg>) {
        let _ = self.entered.send(());
        let _ = self.release.recv_timeout(Duration::from_secs(10));
    }
}

/// Two tasks on one worker that send to the same remote peer within a long
/// slack leave in one write: their drives run back-to-back (queued behind
/// a task that holds the worker), each stages its frame on the one
/// connection, and the park writes both at once.
#[test]
fn two_tasks_frames_to_one_peer_leave_in_one_write() {
    let _host = serial();
    let rig = Staging::new(10_000_000);
    let (sent_tx, sent) = channel();
    let first = rig.spawn(PINGER, Box::new(Forward(sent_tx.clone())));
    let second = rig.spawn(PONGER, Box::new(Forward(sent_tx)));
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    let gate = rig.spawn(
        ActorId(62),
        Box::new(Gate {
            entered: entered_tx,
            release: release_rx,
        }),
    );
    let frame = |from, tag| {
        let msg = Msg::ClientTimer { kind: 0, tag };
        let mut frame = Vec::new();
        wire::encode_frame_into(&Envelope { from, to: RAW, msg }, &mut frame);
        frame.len() as u64
    };
    // Connected first.
    rig.forward_one(&first, &sent);
    let (flushes, bytes) = rig.io_stats_at(frame(PINGER, 0));
    gate.inject(Msg::ClientTimer { kind: 0, tag: 0 });
    entered
        .recv_timeout(Duration::from_secs(5))
        .expect("the gate holds the worker");
    first.inject(Msg::ClientTimer { kind: 0, tag: 1 });
    second.inject(Msg::ClientTimer { kind: 0, tag: 2 });
    release.send(()).expect("the gate is waiting");
    let frames = frame(PINGER, 1) + frame(PONGER, 2);
    let mut read = 0;
    while read < frames {
        let (_, n) = rig
            .peer
            .recv_timeout(Duration::from_secs(2))
            .expect("both frames reach the peer");
        read += n as u64;
    }
    let (after, after_bytes) = rig.io_stats_at(bytes + frames);
    assert_eq!(after_bytes - bytes, frames);
    assert_eq!(after - flushes, 1, "both frames in one write");
    rig.finish(vec![first, second, gate]);
}
