//! The socket send path allocates nothing per envelope once warm.
//!
//! A `send_many` resolves each destination of its batch once in the
//! transport's route table, pushes the hosted ones into their mailboxes as
//! runs, and encodes the remote ones onto one pooled buffer per
//! connection. Its working lists (destinations, per-connection writes) are
//! kept between batches, and the buffers go back to the pool once written,
//! so a warm batch — hosted and remote destinations mixed — allocates
//! nothing at all. That holds on both send paths: a bare transport writes
//! each buffer at once, and one a reactor has adopted stages it on its
//! connection's write queue, which a worker writes out.
//!
//! Lives here because this crate owns the counting `#[global_allocator]`;
//! alone in its file, so no other test allocates while it counts.

use std::io::Read;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use planet_bench::alloc_counter::alloc_count;
use planet_cluster::{
    mailbox, wire, Clock, Envelope, Packet, PlaneConfig, Reactor, TcpTransport, Transport,
};
use planet_mdcc::Msg;
use planet_sim::{Actor, ActorId, Context, SiteId};
use planet_storage::{Key, RecordOption, TxnId, WriteOp};

const WARM_UP: usize = 4_000;
const MEASURED: usize = 32_000;
/// Envelopes per `send_many`, about what a reactor drive hands over.
const BATCH: usize = 32;
/// Allocations per envelope: 0 measured (four runs), a handful in the run
/// allowed (a mailbox ring that grows once more while its drain lags).
const PER_ENVELOPE_BUDGET: f64 = 0.001;

const SENDER: ActorId = ActorId(7);
/// Hosted by the sending transport.
const LOCAL: [ActorId; 2] = [ActorId(1), ActorId(2)];
/// Routed to a peer that reads and discards.
const REMOTE: [ActorId; 2] = [ActorId(3), ActorId(4)];

/// `FastPropose` and `Vote` in turn, round-robin over the four
/// destinations, in batches.
fn batches(envelopes: usize) -> Vec<Vec<Envelope>> {
    let dests = [LOCAL[0], REMOTE[0], LOCAL[1], REMOTE[1]];
    let envs: Vec<Envelope> = (0..envelopes)
        .map(|i| {
            let txn = TxnId::new(0, i as u64);
            let key = Key::new(format!("order:{}", i / 10));
            let msg = if i % 2 == 0 {
                Msg::FastPropose {
                    txn,
                    key,
                    option: RecordOption::new(txn, 0, WriteOp::add_with_floor(-1, 0)),
                    round: 0,
                }
            } else {
                Msg::Vote {
                    txn,
                    key,
                    site: SiteId(1),
                    accept: true,
                    reason: None,
                    round: 0,
                }
            };
            Envelope {
                from: SENDER,
                to: dests[(i / 3) % dests.len()],
                msg,
            }
        })
        .collect();
    envs.chunks(BATCH).map(<[Envelope]>::to_vec).collect()
}

/// Does nothing: its task only makes a reactor adopt the transport.
struct Idle;

impl Actor<Msg> for Idle {
    fn on_message(&mut self, _from: ActorId, _msg: Msg, _ctx: &mut Context<'_, Msg>) {}
}

#[test]
fn a_warm_mixed_send_many_allocates_nothing_per_envelope() {
    for adopted in [false, true] {
        let per_envelope = warm_allocs_per_envelope(adopted);
        assert!(
            per_envelope <= PER_ENVELOPE_BUDGET,
            "{per_envelope:.4} allocations per envelope sent (adopted: {adopted}); \
             the budget is {PER_ENVELOPE_BUDGET}"
        );
    }
}

/// Allocations per envelope of the measured batches, sent by a bare
/// transport or, if `adopted`, by one that a one-worker reactor adopted.
fn warm_allocs_per_envelope(adopted: bool) -> f64 {
    let sender = TcpTransport::new();
    let peer = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    for id in REMOTE {
        sender.add_route(id.0, peer.local_addr().expect("its address"));
    }
    // The remote peer: read every byte into one buffer until the sender
    // hangs up.
    let reader = std::thread::spawn(move || {
        let (mut conn, _) = peer.accept().expect("the sender connects");
        let mut buf = [0u8; 1 << 16];
        let mut bytes = 0;
        while let Ok(n @ 1..) = conn.read(&mut buf) {
            bytes += n;
        }
        bytes
    });
    // Everything the sender will say is built before counting starts.
    let warm_up = batches(WARM_UP);
    let mut measured = batches(MEASURED);
    let all = || warm_up.iter().chain(&measured).flatten();
    let local = all().filter(|env| LOCAL.contains(&env.to)).count();
    let remote_bytes: u64 = all()
        .filter(|env| REMOTE.contains(&env.to))
        .map(|env| 4 + wire::encoded_len(env) as u64)
        .sum();
    let (tx, rx) = mailbox(1 << 16);
    for id in LOCAL {
        sender.host(id.0, tx.clone());
    }
    drop(tx);
    let drain = std::thread::spawn(move || {
        for _ in 0..local {
            let packet = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("every hosted envelope arrives");
            assert!(matches!(packet, Packet::Env(_)), "only envelopes are sent");
        }
    });
    let reactor = adopted.then(|| {
        let reactor = Reactor::new(Clock::new(), PlaneConfig::default().with_workers(1), 7);
        let (tx, rx) = mailbox(16);
        let shared = sender.clone() as Arc<dyn Transport>;
        let idle = reactor.spawn(SENDER, SiteId(0), Box::new(Idle), tx, rx, shared);
        (reactor, idle)
    });

    for mut batch in warm_up {
        sender.send_many(&mut batch);
    }

    let before = alloc_count();
    for batch in &mut measured {
        sender.send_many(batch);
    }
    let allocs = alloc_count() - before;

    // Every remote frame is written, staged ones included.
    let deadline = Instant::now() + Duration::from_secs(30);
    while sender.io_stats().1 < remote_bytes && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    drain.join().expect("the drain thread finishes");
    assert_eq!(
        sender.io_stats().1,
        remote_bytes,
        "every remote frame written"
    );
    assert_eq!(sender.dropped(), 0);
    assert_eq!(sender.connects(), 1);
    if let Some((reactor, idle)) = reactor {
        idle.stop_and_join();
        reactor.shutdown();
    }
    sender.stop();
    assert_eq!(
        reader.join().expect("the reader finishes") as u64,
        remote_bytes
    );
    allocs as f64 / MEASURED as f64
}
