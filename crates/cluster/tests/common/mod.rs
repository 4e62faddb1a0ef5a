//! The stress rig `channel_stress.rs` and `fabric_delivery.rs` share: many
//! sender threads hammer one [`ChannelTransport`] while receiver threads
//! drain their mailboxes, asserting that nothing is lost and that
//! per-(sender, receiver) FIFO order survives.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use planet_cluster::node::Packet;
use planet_cluster::plane::{mailbox, MailboxReceiver};
use planet_cluster::transport::{Envelope, Transport};
use planet_cluster::ChannelTransport;
use planet_mdcc::Msg;
use planet_sim::{ActorId, SiteId};

pub const SENDERS: u32 = 8;
pub const RECEIVERS: u32 = 4;
pub const PER_SENDER: u64 = 500;
pub const MAILBOX_CAP: usize = 4096;

pub fn envelope(s: u32, seq: u64) -> Envelope {
    Envelope {
        from: ActorId(100 + s),
        to: ActorId(s % RECEIVERS),
        msg: Msg::ClientTimer { kind: s, tag: seq },
    }
}

/// Sender `s` targets receiver `s % RECEIVERS`; each message carries the
/// sender in `kind` and a strictly increasing sequence in `tag`. With
/// `batch > 1`, envelopes go out through coalesced `send_many` calls.
pub fn run_senders(transport: &Arc<ChannelTransport>, batch: usize) {
    let mut handles = Vec::new();
    for s in 0..SENDERS {
        let t = Arc::clone(transport);
        handles.push(thread::spawn(move || {
            let mut outbox = Vec::with_capacity(batch);
            for seq in 0..PER_SENDER {
                if batch <= 1 {
                    t.send(envelope(s, seq));
                } else {
                    outbox.push(envelope(s, seq));
                    if outbox.len() == batch {
                        t.send_many(&mut outbox);
                    }
                }
            }
            if !outbox.is_empty() {
                t.send_many(&mut outbox);
            }
        }));
    }
    for h in handles {
        h.join().expect("sender thread");
    }
}

/// Drain `rx` until every sender targeting this receiver has delivered its
/// full quota, asserting per-sender FIFO along the way.
pub fn drain(rx: MailboxReceiver, receiver: u32) -> u64 {
    let expected: u64 =
        (0..SENDERS).filter(|s| s % RECEIVERS == receiver).count() as u64 * PER_SENDER;
    let mut next_seq = vec![0u64; SENDERS as usize];
    let mut got = 0u64;
    while got < expected {
        let packet = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("receiver {receiver} stalled at {got}/{expected}: {e}"));
        let Packet::Env(env) = packet else {
            continue;
        };
        let Msg::ClientTimer { kind, tag } = env.msg else {
            panic!("unexpected message {:?}", env.msg);
        };
        assert_eq!(
            tag, next_seq[kind as usize],
            "FIFO violated: receiver {receiver} saw sender {kind} out of order"
        );
        next_seq[kind as usize] += 1;
        got += 1;
    }
    got
}

pub fn register_all(
    transport: &Arc<ChannelTransport>,
    sender_site: SiteId,
) -> Vec<MailboxReceiver> {
    let mut rxs = Vec::new();
    for r in 0..RECEIVERS {
        let (tx, rx) = mailbox(MAILBOX_CAP);
        transport.register(r, SiteId(0), tx);
        rxs.push(rx);
    }
    // Senders need routes too: the fabric resolves the source site before
    // sampling a delay. Their receiving halves are parked in a leaked Vec
    // so the mailboxes stay open (sends to senders are not part of this
    // test, but a dropped receiver would mark the mailbox closed).
    for s in 0..SENDERS {
        let (tx, rx_unused) = mailbox(MAILBOX_CAP);
        transport.register(100 + s, sender_site, tx);
        std::mem::forget(rx_unused);
    }
    rxs
}

pub fn run_stress(transport: Arc<ChannelTransport>, batch: usize) {
    let rxs = register_all(&transport, SiteId(0));
    let drains: Vec<_> = rxs
        .into_iter()
        .enumerate()
        .map(|(r, rx)| thread::spawn(move || drain(rx, r as u32)))
        .collect();
    run_senders(&transport, batch);
    let mut total = 0;
    for d in drains {
        total += d.join().expect("receiver thread");
    }
    assert_eq!(total, u64::from(SENDERS) * PER_SENDER);
}
