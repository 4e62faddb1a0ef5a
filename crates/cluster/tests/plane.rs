//! Message-plane behavior through a live node: exact timer wake-ups on the
//! reactor, protocol traffic past a full mailbox, and submit shedding.

use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use planet_cluster::node::{Clock, Packet};
use planet_cluster::plane::{mailbox, PlaneConfig};
use planet_cluster::transport::{Envelope, Transport};
use planet_cluster::{ChannelTransport, Reactor, TcpTransport};
use planet_mdcc::{Msg, Outcome, TxnSpec};
use planet_sim::{Actor, ActorId, Context, SimDuration, SiteId};
use planet_storage::{Key, WriteOp};

/// Records the wall-clock instant each message reaches it; schedules one
/// long timer at start so the worker has a distant deadline to park
/// toward.
struct Probe {
    started: Instant,
    timer_delay: SimDuration,
    events: Sender<(Duration, u32)>,
}

impl Actor<Msg> for Probe {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        ctx.schedule(self.timer_delay, Msg::ClientTimer { kind: 0, tag: 0 });
    }

    fn on_message(&mut self, _from: ActorId, msg: Msg, _ctx: &mut Context<'_, Msg>) {
        if let Msg::ClientTimer { kind, .. } = msg {
            let _ = self.events.send((self.started.elapsed(), kind));
        }
    }
}

/// A message arriving while the task's only worker is parked toward a
/// distant timer deadline must be handled immediately — not after the
/// timer, and not on the next tick of some polling interval: the park is
/// *exact*, bounded only by the timer queue's next deadline, because a mailbox
/// arrival's wake hook cuts it short.
#[test]
fn message_mid_timer_wait_is_handled_before_the_timer() {
    let clock = Clock::new();
    let transport = ChannelTransport::direct(clock);
    let (events_tx, events_rx) = channel();
    let probe: Box<dyn Actor<Msg>> = Box::new(Probe {
        started: Instant::now(),
        timer_delay: SimDuration::from_millis(400),
        events: events_tx,
    });
    let plane = PlaneConfig::default().with_workers(1);
    let reactor = Reactor::new(clock, plane, 1);
    let (tx, rx) = mailbox(plane.mailbox_capacity);
    transport.register(1, SiteId(0), tx.clone());
    let node = reactor.spawn(
        ActorId(1),
        SiteId(0),
        probe,
        tx,
        rx,
        Arc::clone(&transport) as Arc<dyn Transport>,
    );

    // Let the worker settle into its 400 ms park, then poke the task.
    thread::sleep(Duration::from_millis(100));
    transport.send(Envelope {
        from: ActorId(2),
        to: ActorId(1),
        msg: Msg::ClientTimer { kind: 7, tag: 0 },
    });

    let (env_at, kind) = events_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the mid-wait message arrives");
    assert_eq!(kind, 7, "the injected message is handled first");
    assert!(
        env_at < Duration::from_millis(300),
        "handled at {env_at:?}, i.e. only after the timer deadline — the worker was not woken"
    );

    let (timer_at, kind) = events_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the timer still fires");
    assert_eq!(kind, 0, "the scheduled timer fires second");
    assert!(
        timer_at >= Duration::from_millis(390),
        "timer fired early at {timer_at:?}"
    );
    node.stop_and_join();
    reactor.shutdown();
}

/// Protocol (non-`Submit`) traffic into a full mailbox goes past the
/// bound: the channel transport runs on the reactor worker that flushes,
/// and a worker must never block on a mailbox. Nothing is lost or shed.
#[test]
fn full_mailbox_takes_protocol_traffic_past_the_bound() {
    let transport = ChannelTransport::direct(Clock::new());
    let (tx, rx) = mailbox(1);
    transport.register(1, SiteId(0), tx);

    let env = |tag| Envelope {
        from: ActorId(2),
        to: ActorId(1),
        msg: Msg::ClientTimer { kind: 0, tag },
    };
    for tag in 0..3 {
        transport.send(env(tag)); // the first fills the mailbox
    }
    assert_eq!(rx.depth(), 3, "protocol traffic is never held back");
    for want in 0..3 {
        match rx.try_recv() {
            Ok(Packet::Env(env)) => {
                assert!(matches!(env.msg, Msg::ClientTimer { tag, .. } if tag == want));
            }
            _ => panic!("packet {want} must be queued"),
        }
    }
    assert_eq!(transport.dropped(), 0);
    assert_eq!(transport.shed(), 0);
}

/// A submission — `Submit` or `SubmitPlan` alike — into a full mailbox is
/// shed, not blocked on, and the shed surfaces to the submitting client as a
/// timed-out `TxnDone` carrying the submission's tag: a closed-loop client
/// keyed on tags keeps running instead of hanging. Both fabrics: the
/// channel transport, and a tcp transport hosting both mailboxes.
#[test]
fn shed_submit_bounces_as_timed_out_txn_done() {
    for (fabric, kind) in [
        ("channel", "Submit"),
        ("channel", "SubmitPlan"),
        ("tcp", "Submit"),
        ("tcp", "SubmitPlan"),
    ] {
        let msg = move |tag| match kind {
            "Submit" => Msg::Submit {
                spec: TxnSpec::write_one(Key::new("shed"), WriteOp::add(1)),
                reply_to: ActorId(9),
                tag,
            },
            _ => Msg::SubmitPlan {
                plan: 1,
                params: Vec::new(),
                reply_to: ActorId(9),
                tag,
            },
        };
        // An overloaded server: capacity 2, nobody draining. The client
        // mailbox receives the bounces.
        let (server_tx, _server_rx) = mailbox(2);
        let (client_tx, client_rx) = mailbox(64);
        let (transport, shed): (Arc<dyn Transport>, Box<dyn Fn() -> u64>) = match fabric {
            "channel" => {
                let channel = ChannelTransport::direct(Clock::new());
                channel.register(1, SiteId(0), server_tx);
                channel.register(9, SiteId(0), client_tx);
                let counter = Arc::clone(&channel);
                (channel, Box::new(move || counter.shed()))
            }
            _ => {
                let tcp = TcpTransport::new();
                tcp.host(1, server_tx);
                tcp.host(9, client_tx);
                let counter = Arc::clone(&tcp);
                (tcp, Box::new(move || counter.shed()))
            }
        };
        let kind = format!("{kind} on {fabric}");

        // Sent from a thread of its own: a transport that blocks on the
        // full mailbox fails the test instead of hanging it.
        let (sent_tx, sent_rx) = channel();
        let sender = Arc::clone(&transport);
        thread::spawn(move || {
            for tag in 0..6 {
                sender.send(Envelope {
                    from: ActorId(9),
                    to: ActorId(1),
                    msg: msg(tag),
                });
            }
            let _ = sent_tx.send(());
        });
        sent_rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("{kind} blocked on the full mailbox"));
        assert_eq!(shed(), 4, "{kind}: capacity 2 admits 2");

        for expected_tag in 2..6 {
            let packet = client_rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("{kind}: no bounce arrived"));
            let Packet::Env(env) = packet else {
                panic!("unexpected packet for client");
            };
            match env.msg {
                Msg::TxnDone { tag, outcome, .. } => {
                    assert_eq!(tag, expected_tag, "{kind}: bounce carries the tag");
                    assert_eq!(outcome, Outcome::TimedOut);
                }
                other => panic!("expected a timed-out TxnDone, got {other:?}"),
            }
        }
    }
}
