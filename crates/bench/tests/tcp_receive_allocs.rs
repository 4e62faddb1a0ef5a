//! The socket receive path allocates per *burst*, not per frame.
//!
//! A sender coalesces the frames of a drive into one socket write; the
//! receiver takes them back with one `read` into the connection's one
//! buffer and decodes every frame out of it (`wire::FrameReader`). A key is
//! decoded as a value held inline, so interning a new key — what a replica
//! does on first sight — copies nothing, and the buffer is refilled in
//! place. Nothing is left per frame (the mailbox's queue is a ring that
//! stops growing). It used to be a copy per new key (0.1 per frame here),
//! before that a buffer per frame, for good once eight frames had been
//! pinned by interned keys, plus a `Vec` per destination per `send_many`.
//!
//! Lives here because this crate owns the counting `#[global_allocator]`;
//! alone in its file, so no other test allocates while it counts.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use planet_bench::alloc_counter::alloc_count;
use planet_cluster::{mailbox, Envelope, Packet, TcpTransport, Transport};
use planet_mdcc::Msg;
use planet_sim::{ActorId, SiteId};
use planet_storage::{Key, KeyInterner, RecordOption, TxnId, WriteOp};

const WARM_UP: usize = 2_000;
const MEASURED: usize = 20_000;
/// Frames per `send_many`, about what a reactor drive hands over.
const BATCH: usize = 32;
/// Allocations per frame: 0.002 measured (40 in 20 000 frames, none of
/// them per frame), five times that allowed.
const PER_FRAME_BUDGET: f64 = 0.01;

const SENDER: ActorId = ActorId(7);
const RECEIVER: ActorId = ActorId(1);

/// `FastPropose` and `Vote` frames in turn, ten frames to a key, the keys
/// numbered from `first_key` on.
fn batches(frames: usize, first_key: usize) -> Vec<Vec<Envelope>> {
    let envs: Vec<Envelope> = (0..frames)
        .map(|i| {
            let txn = TxnId::new(0, i as u64);
            let key = Key::new(format!("order:{}", first_key + i / 10));
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
                to: RECEIVER,
                msg,
            }
        })
        .collect();
    envs.chunks(BATCH).map(<[Envelope]>::to_vec).collect()
}

#[test]
fn receiving_frames_allocates_per_burst_not_per_frame() {
    let (sender, receiver) = (TcpTransport::new(), TcpTransport::new());
    let any = "127.0.0.1:0".parse().expect("loopback address");
    let addr = receiver.listen(any).expect("bind a loopback port");
    sender.add_route(RECEIVER.0, addr);
    let (tx, rx) = mailbox(4096);
    receiver.host(RECEIVER.0, tx);

    // The hosted actor: intern every key, as a replica does, and drop the
    // message. It meets the sender at the barrier once the warm-up is in.
    let warmed = Arc::new(Barrier::new(2));
    let drain = {
        let warmed = warmed.clone();
        std::thread::spawn(move || {
            let mut interner = KeyInterner::new();
            for received in 1..=WARM_UP + MEASURED {
                let packet = rx
                    .recv_timeout(Duration::from_secs(30))
                    .expect("every frame sent arrives");
                let Packet::Env(env) = packet else {
                    panic!("only envelopes are sent");
                };
                match &env.msg {
                    Msg::FastPropose { key, .. } | Msg::Vote { key, .. } => interner.intern(key),
                    other => panic!("unexpected message: {other:?}"),
                };
                if received == WARM_UP {
                    warmed.wait();
                }
            }
            interner.len()
        })
    };

    // Everything the sender will say is built before counting starts.
    let warm_up = batches(WARM_UP, 0);
    let mut measured = batches(MEASURED, WARM_UP);
    for mut batch in warm_up {
        sender.send_many(&mut batch);
    }
    warmed.wait();

    let before = alloc_count();
    for batch in &mut measured {
        sender.send_many(batch);
    }
    let keys = drain.join().expect("the drain thread finishes");
    let allocs = alloc_count() - before;

    assert_eq!(keys, (WARM_UP + MEASURED) / 10, "every key was interned");
    assert_eq!((sender.dropped(), receiver.dropped()), (0, 0));
    let per_frame = allocs as f64 / MEASURED as f64;
    assert!(
        per_frame <= PER_FRAME_BUDGET,
        "{allocs} allocations while sending and receiving {MEASURED} frames \
         ({per_frame:.3} per frame; the budget is {PER_FRAME_BUDGET})"
    );
    sender.stop();
    receiver.stop();
}
