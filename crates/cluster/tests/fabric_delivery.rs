//! Delivery through the channel fabric, which has no thread of its own: a
//! send is stamped with its sampled delivery instant on the sending thread
//! and enqueued in its destination mailbox at once. These tests pin what
//! that must keep: nothing lost and per-pair FIFO under many senders and
//! across a partition window, no bare receive before a packet's instant, a
//! reactor that drives a delayed packet within the slack of its instant,
//! and a cluster that cannot wedge on tiny mailboxes — the last on the tcp
//! fabric too, whose bursts are delivered under the same policy.
//!
//! This file is a workload for the ThreadSanitizer CI job, beside
//! `channel_stress.rs`: tsan observes the fabric lock, stamped runs into
//! the bounded mailboxes and the reactor's timed wakes under contention.

mod common;

use std::sync::mpsc::{channel, Sender, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use planet_cluster::node::{Clock, Packet};
use planet_cluster::plane::{mailbox, PlaneConfig};
use planet_cluster::transport::{Envelope, Transport};
use planet_cluster::{ChannelTransport, LiveCluster, Reactor};
use planet_mdcc::{ClusterConfig, Msg, Outcome, Protocol, TxnSpec};
use planet_sim::{
    Actor, ActorId, Context, JitterModel, NetworkModel, Partition, SimDuration, SimTime, SiteId,
};
use planet_storage::{Key, WriteOp};

use common::{envelope, register_all, run_stress, RECEIVERS, SENDERS};

/// Held by every test here for its whole run: the tests drive threads of
/// their own, and the idle-reactor timing needs the host to itself.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One site whose every delay is exactly half of `rtt_ms`: no jitter.
fn exact(rtt_ms: f64) -> NetworkModel {
    let mut net = NetworkModel::from_rtt_ms(&[vec![rtt_ms]]);
    net.jitter = JitterModel {
        sigma: 0.0,
        tail_prob: 0.0,
        tail_factor: 1.0,
    };
    net
}

#[test]
fn fabric_transport_concurrent_senders() {
    let _host = serial();
    // A one-site, zero-RTT, zero-loss model: every send is stamped at
    // least 50 µs out, and must still arrive in pair order.
    let net = NetworkModel::from_rtt_ms(&[vec![0.0]]);
    let transport = ChannelTransport::with_network(Clock::new(), net, 42, 1, 200);
    run_stress(Arc::clone(&transport), 1);
    assert_eq!(transport.dropped(), 0);
    transport.stop();
}

#[test]
fn fabric_transport_batched_senders() {
    let _host = serial();
    let net = NetworkModel::from_rtt_ms(&[vec![0.0]]);
    let transport = ChannelTransport::with_network(Clock::new(), net, 43, 1, 200);
    run_stress(Arc::clone(&transport), 32);
    assert_eq!(transport.dropped(), 0);
    transport.stop();
}

/// Coalesced batches across a partition window: messages sent while the
/// cut is up are lost (never delivered late), and per-pair FIFO holds
/// across the gap — tags arrive strictly increasing, with a hole where the
/// partition was, and traffic resumes after the heal.
#[test]
fn batched_fifo_survives_a_partition_window() {
    let _host = serial();
    // Two sites, 2ms RTT. Site 0 (senders) is cut off from site 1
    // (receivers) for wall-clock [150ms, 450ms).
    let rtt = vec![vec![0.05, 2.0], vec![2.0, 0.05]];
    let mut net = NetworkModel::from_rtt_ms(&rtt);
    net.add_partition(Partition {
        from: SimTime::from_millis(150),
        to: SimTime::from_millis(450),
        a: SiteId(0),
        b: SiteId(1),
    });
    let transport = ChannelTransport::with_network(Clock::new(), net, 44, 1, 200);

    // Receivers at site 0, senders at site 1 — the cut hits exactly the
    // sender→receiver direction.
    let rxs = register_all(&transport, SiteId(1));

    const ROUNDS: u64 = 60;
    const PER_ROUND: u64 = 8;
    let last_tag = ROUNDS * PER_ROUND - 1;

    // Paced senders: one coalesced batch every 10ms, spanning the window.
    let mut handles = Vec::new();
    for s in 0..SENDERS {
        let t = Arc::clone(&transport);
        handles.push(thread::spawn(move || {
            let mut outbox = Vec::with_capacity(PER_ROUND as usize);
            for round in 0..ROUNDS {
                for k in 0..PER_ROUND {
                    outbox.push(envelope(s, round * PER_ROUND + k));
                }
                t.send_many(&mut outbox);
                thread::sleep(Duration::from_millis(10));
            }
        }));
    }

    // Drain until every sender's final tag has arrived, asserting
    // strictly-increasing tags per sender (gaps allowed: the partition
    // loses messages, it must never reorder them).
    let drains: Vec<_> = rxs
        .into_iter()
        .enumerate()
        .map(|(r, rx)| {
            thread::spawn(move || {
                let receiver = r as u32;
                let mine: Vec<u32> = (0..SENDERS).filter(|s| s % RECEIVERS == receiver).collect();
                let mut last = vec![None::<u64>; SENDERS as usize];
                while mine.iter().any(|&s| last[s as usize] != Some(last_tag)) {
                    let packet = rx
                        .recv_timeout(Duration::from_secs(30))
                        .unwrap_or_else(|e| {
                            panic!("receiver {receiver} stalled ({e}); progress: {last:?}")
                        });
                    let Packet::Env(env) = packet else { continue };
                    let Msg::ClientTimer { kind, tag } = env.msg else {
                        panic!("unexpected message {:?}", env.msg);
                    };
                    if let Some(prev) = last[kind as usize] {
                        assert!(
                            tag > prev,
                            "receiver {receiver} saw sender {kind} go {prev} -> {tag}"
                        );
                    }
                    last[kind as usize] = Some(tag);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("sender thread");
    }
    for d in drains {
        d.join().expect("receiver thread");
    }
    assert!(
        transport.dropped() > 0,
        "the partition window should have cost some messages"
    );
    transport.stop();
}

fn ping(tag: u64) -> Envelope {
    Envelope {
        from: ActorId(2),
        to: ActorId(1),
        msg: Msg::ClientTimer { kind: 0, tag },
    }
}

/// A transport over `net` with actor 1 (returned receiver) and actor 2 (a
/// sender, whose mailbox stays open) registered at site 0.
fn pair(
    clock: Clock,
    net: NetworkModel,
) -> (Arc<ChannelTransport>, planet_cluster::MailboxReceiver) {
    let transport = ChannelTransport::with_network(clock, net, 7, 1, 200);
    let (tx, rx) = mailbox(64);
    transport.register(1, SiteId(0), tx);
    let (sender_tx, sender_rx) = mailbox(64);
    transport.register(2, SiteId(0), sender_tx);
    std::mem::forget(sender_rx);
    (transport, rx)
}

/// A receiver with no reactor behind it (a probe, a test) reads a delayed
/// packet as not there yet, and gets it no earlier than its instant:
/// `try_recv` says `Empty` while it is queued, `recv_timeout` waits it out.
#[test]
fn a_bare_receive_never_returns_a_packet_before_its_instant() {
    let _host = serial();
    let clock = Clock::new();
    let (transport, rx) = pair(clock, exact(40.0));
    let delay = SimDuration::from_millis(20);
    let before = clock.now();
    let mut batch: Vec<Envelope> = (0..8).map(ping).collect();
    transport.send_many(&mut batch);
    let due = clock.instant(before + delay);
    assert_eq!(rx.depth(), 8, "stamped and queued at once");
    assert!(matches!(rx.try_recv(), Err(TryRecvError::Empty)));
    for want in 0..8 {
        let packet = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("delivered at its instant");
        assert!(Instant::now() >= due, "packet {want} handed out early");
        let Packet::Env(env) = packet else {
            panic!("only envelopes are sent");
        };
        assert!(matches!(env.msg, Msg::ClientTimer { tag, .. } if tag == want));
    }
    assert_eq!(transport.dropped(), 0);
}

/// Reports the instant each message reaches it.
struct Stamp(Sender<Instant>);

impl Actor<Msg> for Stamp {
    fn on_message(&mut self, _from: ActorId, _msg: Msg, _ctx: &mut Context<'_, Msg>) {
        let _ = self.0.send(Instant::now());
    }
}

/// On an idle reactor a packet delayed 1 ms wakes no task on arrival but
/// arms a timed wake: it is driven no earlier than its instant less the
/// slack, and no later than 2 ms after it. Never early, on every send; and
/// on time for all but a few, because the host's own timed waits overshoot
/// now and then (a 1 ms condvar wait overshot by more than 2 ms on about
/// one in a hundred tries on the 2-core test host). A lost timed wake
/// would wait out the 500 ms park backstop, far past the 100 ms cap.
#[test]
fn an_idle_reactor_drives_a_delayed_envelope_within_the_slack() {
    let _host = serial();
    let clock = Clock::new();
    let plane = PlaneConfig::default().with_workers(2);
    let slack = Duration::from_micros(plane.fabric_slack_us);
    let (transport, _) = pair(clock, exact(2.0));
    let reactor = Reactor::new(clock, plane, 3);
    let (seen_tx, seen) = channel();
    let (tx, rx) = mailbox(plane.mailbox_capacity);
    transport.register(1, SiteId(0), tx.clone());
    let node = reactor.spawn(
        ActorId(1),
        SiteId(0),
        Box::new(Stamp(seen_tx)),
        tx,
        rx,
        Arc::clone(&transport) as Arc<dyn Transport>,
    );
    let delay = SimDuration::from_millis(1);
    let mut late = Vec::new();
    for tag in 0..40 {
        // Idle: the workers are parked when the send lands.
        thread::sleep(Duration::from_millis(3));
        let before = clock.now();
        transport.send(ping(tag));
        let after = clock.now();
        let at = seen
            .recv_timeout(Duration::from_secs(5))
            .expect("the delayed envelope is driven");
        let (earliest, latest) = (clock.instant(before + delay), clock.instant(after + delay));
        assert!(at + slack >= earliest, "driven {:?} early", earliest - at);
        let lateness = at.saturating_duration_since(latest);
        assert!(
            lateness <= Duration::from_millis(100),
            "driven {lateness:?} late"
        );
        if lateness > Duration::from_millis(2) {
            late.push(lateness);
        }
    }
    assert!(late.len() <= 4, "driven more than 2 ms late: {late:?}");
    node.stop_and_join();
    reactor.shutdown();
    assert_eq!(transport.dropped(), 0);
}

/// A closed-loop client that commits `left` increments, resubmitting a
/// submission that comes back shed (a timed-out `TxnDone`); every outcome
/// goes to the sink.
struct Retrier {
    coordinator: ActorId,
    key: Key,
    left: u32,
    outcomes: Sender<Outcome>,
}

impl Retrier {
    fn submit(&self, ctx: &mut Context<'_, Msg>) {
        let spec = TxnSpec::write_one(self.key.clone(), WriteOp::add(1));
        let reply_to = ctx.self_id();
        let submit = Msg::Submit {
            spec,
            reply_to,
            tag: u64::from(self.left),
        };
        ctx.send(self.coordinator, submit);
    }
}

impl Actor<Msg> for Retrier {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.submit(ctx);
    }

    fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        let Msg::TxnDone { outcome, .. } = msg else {
            return;
        };
        let _ = self.outcomes.send(outcome);
        if outcome == Outcome::Committed {
            self.left -= 1;
        }
        if self.left > 0 {
            self.submit(ctx);
        }
    }
}

/// Mailboxes of four packets: no worker may block on one, so protocol
/// traffic goes past the bound and the cluster commits every transaction,
/// while client submissions still shed at it (each pool's first burst of
/// sixteen submissions to its coordinator cannot all fit) and come back to
/// be resubmitted. `fabric` is the builder's last step: the channel fabric
/// with a network model, or tcp with every site hosted.
fn tiny_mailboxes_commit_every_transaction(
    fabric: impl FnOnce(planet_cluster::LiveClusterBuilder) -> planet_cluster::LiveClusterBuilder,
) {
    const CLIENTS: usize = 16;
    const EACH: u32 = 3;
    let plane = PlaneConfig {
        mailbox_capacity: 4,
        ..PlaneConfig::default()
    }
    .with_workers(2);
    let builder = LiveCluster::builder(ClusterConfig::new(3, Protocol::Fast))
        .plane(plane)
        .seed(5);
    let mut cluster = fabric(builder).build();
    let (outcomes_tx, outcomes) = channel();
    for site in 0..3 {
        let coordinator = cluster.coordinator(site);
        let clients: Vec<Box<dyn Actor<Msg>>> = (0..CLIENTS)
            .map(|c| {
                Box::new(Retrier {
                    coordinator,
                    key: Key::new(format!("k{site}-{c}")),
                    left: EACH,
                    outcomes: outcomes_tx.clone(),
                }) as _
            })
            .collect();
        cluster.spawn_client_pool(site, clients);
    }
    drop(outcomes_tx);
    let want = 3 * CLIENTS * EACH as usize;
    let (mut committed, mut timed_out) = (0, 0u64);
    let deadline = Instant::now() + Duration::from_secs(60);
    while committed < want {
        let left = deadline.saturating_duration_since(Instant::now());
        match outcomes.recv_timeout(left) {
            Ok(Outcome::Committed) => committed += 1,
            Ok(Outcome::TimedOut) => timed_out += 1,
            Ok(other) => panic!("an increment cannot end {other:?}"),
            Err(e) => panic!("wedged at {committed}/{want} commits: {e}"),
        }
    }
    let harvest = cluster.shutdown();
    assert!(harvest.shed > 0, "submissions shed at the bound");
    assert_eq!(
        timed_out, harvest.shed,
        "every shed comes back as a timeout"
    );
}

#[test]
fn a_channel_cluster_with_tiny_mailboxes_commits_every_transaction() {
    let _host = serial();
    let rtt: Vec<Vec<f64>> = (0..3)
        .map(|i| (0..3).map(|j| if i == j { 0.1 } else { 2.0 }).collect())
        .collect();
    tiny_mailboxes_commit_every_transaction(|b| b.network(NetworkModel::from_rtt_ms(&rtt)));
}

/// The same on tcp: a burst read off a socket is delivered under the
/// channel fabric's policy, so the servers' workers never block on a
/// mailbox either, and a shed comes back down the client's connection.
#[test]
fn a_tcp_cluster_with_tiny_mailboxes_commits_every_transaction() {
    let _host = serial();
    let any = "127.0.0.1:0".parse().expect("loopback address");
    tiny_mailboxes_commit_every_transaction(|b| b.tcp(vec![any; 3], 0..3));
}
