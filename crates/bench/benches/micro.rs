//! Micro-benchmarks for the hot data structures: the prediction math (these
//! run on every progress event of every transaction), the metrics histogram
//! and registry, storage validation, workload sampling, the timer queue
//! (`planet_sim::EventQueue`) with a few dozen and with a quarter of a
//! million timers armed, the reactor parking with the latter, plan
//! registration against table size, a replica's storage maintenance
//! (checkpoint, restart) against store size at a fixed written set, key
//! interning against table size, and the tcp transport's `send_many` to a
//! hosted and to a remote destination.
//! Driven by the in-repo timing harness (`planet_bench::timing`).

use std::io::Read;
use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::Arc;

use planet_bench::timing::{black_box, Harness};

use planet_cluster::{mailbox, Clock, Envelope, PlaneConfig, Reactor, TcpTransport, Transport};
use planet_core::{CompiledPlan, DeltaRef, KeyRef, KeyTemplate, OpTemplate, TxnProgram};
use planet_mdcc::{ClusterConfig, Msg, Protocol};
use planet_predict::likelihood::{KeyState, LikelihoodModel, TxnSnapshot};
use planet_predict::quorum::prob_at_least;
use planet_predict::LatencyEcdf;
use planet_sim::{
    Actor, ActorId, Context, DetRng, EventQueue, Histogram, Metrics, SimDuration, SimTime, SiteId,
};
use planet_storage::{
    Key, KeyId, KeyInterner, RecordOption, Replica, Store, TxnId, Value, WriteOp,
};
use planet_workload::Zipf;

fn bench_quorum(h: &mut Harness) {
    let probs5 = [0.9, 0.8, 0.95, 0.7, 0.85];
    let probs16: Vec<f64> = (0..16).map(|i| 0.5 + (i as f64) * 0.03).collect();
    h.bench("quorum/poisson_binomial_5_of_4", || {
        prob_at_least(black_box(&probs5), black_box(4))
    });
    h.bench("quorum/poisson_binomial_16_of_11", || {
        prob_at_least(black_box(&probs16), black_box(11))
    });
}

fn bench_likelihood(h: &mut Harness) {
    let mut model = LikelihoodModel::new(5, 512);
    let mut rng = DetRng::new(7);
    for _ in 0..512 {
        for site in 0..5u8 {
            let rtt = 100_000 + (rng.unit_f64() * 50_000.0) as u64;
            model.observe_vote(site, rtt, rng.bernoulli(0.9), 1, 42);
        }
        model.observe_key_resolution(42, rng.bernoulli(0.8));
    }
    let snap = TxnSnapshot {
        keys: vec![
            KeyState {
                accepts: 1,
                rejects: 0,
                outstanding: (1..5).collect(),
                pending_at_read: 1,
                key_hash: 42,
                quorum: 4,
                voters: 5,
            },
            KeyState {
                accepts: 0,
                rejects: 0,
                outstanding: (0..5).collect(),
                pending_at_read: 0,
                key_hash: 43,
                quorum: 4,
                voters: 5,
            },
        ],
        elapsed_us: 40_000,
    };
    // A query of a model nothing has written to since the warm-up.
    h.bench("likelihood/two_key_snapshot", || {
        model.likelihood(black_box(&snap), black_box(200_000))
    });
    let mut i = 0u64;
    h.bench("likelihood/observe_vote", || {
        i += 1;
        model.observe_vote((i % 5) as u8, 100_000 + i % 1000, true, 0, i % 64);
    });
    // What `ClientActor` pays per vote: learn from it, then predict.
    let mut i = 0u64;
    h.bench("likelihood/observe_then_query", || {
        i += 1;
        let rtt = 100_000 + (i * 7_919) % 50_000;
        model.observe_vote((i % 5) as u8, rtt, true, 1, 42);
        model.likelihood(black_box(&snap), black_box(200_000))
    });
}

fn bench_ecdf(h: &mut Harness) {
    let mut ecdf = LatencyEcdf::new(512);
    for i in 0..512u64 {
        ecdf.record(100_000 + i * 37 % 50_000);
    }
    h.bench("ecdf/conditional_within_warm", || {
        ecdf.conditional_within(black_box(40_000), black_box(150_000))
    });
    let mut i = 0u64;
    h.bench("ecdf/record_and_query", || {
        i += 1;
        ecdf.record(100_000 + i % 10_000);
        ecdf.cdf(black_box(120_000))
    });
}

fn bench_histogram(h: &mut Harness) {
    let mut hist = Histogram::new();
    let mut i = 0u64;
    h.bench("histogram/record", || {
        i = i.wrapping_mul(6364136223846793005).wrapping_add(1);
        hist.record(black_box(i % 10_000_000));
    });
    let mut hist = Histogram::new();
    for v in (0..1_000_000).step_by(37) {
        hist.record(v);
    }
    h.bench("histogram/quantile", || hist.quantile(black_box(0.99)));
}

fn bench_metrics(h: &mut Harness) {
    // A reactor task's registry: a dozen names, touched by name per message.
    let mut metrics = Metrics::new();
    for name in [
        "plane.batch",
        "plane.mailbox.depth",
        "plane.steal",
        "replica.checkpoints",
        "replica.versions_committed",
        "span.quorum_wait_us",
        "span.queue_us",
        "span.wal_us",
        "txn.commit_latency.fast",
        "txn.commit_latency.fast.site0",
        "txn.committed.fast",
    ] {
        metrics.histogram(name).record(1);
        metrics.counter(name).inc();
    }
    let mut i = 0u64;
    h.bench("metrics/touch-existing", || {
        i += 1;
        metrics
            .histogram(black_box("span.queue_us"))
            .record(i & 0xfff);
    });
}

/// `armed` timers, one every 40 us from `ahead_us` on.
fn armed_queue(armed: u64, ahead_us: u64) -> EventQueue<u64> {
    let mut queue = EventQueue::new();
    for i in 0..armed {
        queue.push(SimTime::from_micros(i * 40 + ahead_us), i);
    }
    queue
}

fn bench_timers(h: &mut Harness) {
    // What a worker pays each time it parks, against how much is armed.
    for (label, armed) in [("1k", 1_000), ("250k", 250_000)] {
        let queue = armed_queue(armed, 10_000_000);
        h.bench(&format!("timers/next_deadline@{label}-armed"), || {
            black_box(&queue).peek_at()
        });
    }
    // Steady state: every 40 us the oldest timer expires and a new one is
    // armed behind the rest. 64 armed is a worker's load with one timer per
    // actor; 250 k is ten seconds of one timer per transaction at 25 k/s.
    for (label, armed) in [("64", 64u64), ("250k", 250_000)] {
        let mut queue = armed_queue(armed, 0);
        let mut i = armed;
        h.bench(&format!("timers/insert+expire@{label}-armed"), || {
            let now = SimTime::from_micros((i - armed) * 40);
            queue.push(SimTime::from_micros(i * 40), i);
            while let Some((_, item)) = queue.pop_due(now) {
                black_box(item);
            }
            i += 1;
        });
        assert_eq!(queue.len() as u64, armed, "one in, one out");
    }
}

/// Arms `timers` one-minute timers at start, then answers every message.
struct Echo {
    timers: u64,
    reply: mpsc::Sender<()>,
}

impl Actor<Msg> for Echo {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        for tag in 0..self.timers {
            ctx.schedule(
                SimDuration::from_micros(60_000_000 + tag * 40),
                Msg::ClientTimer { kind: 9, tag },
            );
        }
    }

    fn on_message(&mut self, _from: ActorId, _msg: Msg, _ctx: &mut Context<'_, Msg>) {
        let _ = self.reply.send(());
    }
}

struct NullTransport;

impl Transport for NullTransport {
    fn send(&self, _env: Envelope) {}
    fn send_many(&self, envs: &mut Vec<Envelope>) {
        envs.clear();
    }
}

fn bench_reactor(h: &mut Harness) {
    // Message in, reply out, and the worker back in its parker (its sleep
    // bounded by the earliest timed wake) on a one-worker reactor whose
    // task holds a quarter of a million timers. Waiting for the park
    // keeps the next message from arriving mid-drive, which would requeue
    // the task and skip the park path this row is about.
    let plane = PlaneConfig::default().with_workers(1);
    let reactor = Reactor::new(Clock::new(), plane, 1);
    let (reply_tx, reply_rx) = mpsc::channel();
    let (tx, rx) = mailbox(plane.mailbox_capacity);
    let node = reactor.spawn(
        ActorId(1),
        SiteId(0),
        Box::new(Echo {
            timers: 250_000,
            reply: reply_tx,
        }),
        tx,
        rx,
        Arc::new(NullTransport),
    );
    let parks = || reactor.worker_stats().3;
    let round_trip = || {
        let before = parks();
        node.inject(Msg::ClientTimer { kind: 1, tag: 0 });
        reply_rx.recv().expect("the echo actor answers");
        while parks() == before {
            std::hint::spin_loop();
        }
    };
    round_trip(); // the timers are armed before the first answer
    h.bench("reactor/park-with-250k-timers", round_trip);
    node.stop_and_join();
    reactor.shutdown();
}

fn bench_storage(h: &mut Harness) {
    let mut store = Store::new();
    let key = Key::new("bench");
    let mut seq = 0u64;
    h.bench("storage/accept_decide_physical", || {
        let read = store.read(&key);
        let txn = TxnId::new(0, seq);
        seq += 1;
        let opt = RecordOption::new(txn, read.version, WriteOp::Set(Value::Int(seq as i64)));
        store.accept(&key, opt).expect("bench accept");
        store.decide(&key, txn, true);
    });

    let mut store = Store::new();
    let key = Key::new("stock");
    store
        .accept(
            &key,
            RecordOption::new(TxnId::new(0, 0), 0, WriteOp::Set(Value::Int(1_000_000))),
        )
        .expect("bench accept");
    store.decide(&key, TxnId::new(0, 0), true);
    // A standing crowd of pending deltas to sum over.
    for i in 1..=16u64 {
        store
            .accept(
                &key,
                RecordOption::new(TxnId::new(0, i), 0, WriteOp::add_with_floor(-1, 0)),
            )
            .expect("bench accept");
    }
    let probe = RecordOption::new(TxnId::new(1, 0), 0, WriteOp::add_with_floor(-1, 0));
    h.bench("storage/demarcation_validate", || {
        store.validate(&key, black_box(&probe))
    });
}

/// Registering a plan: intern every table key, add the ticket purchase's
/// three ops, validate and compile. Ten times the keys should cost ten
/// times as much.
fn bench_plan(h: &mut Harness) {
    let config = ClusterConfig::new(3, Protocol::Fast);
    for (label, n) in [("10k", 10_000u32), ("100k", 100_000)] {
        let keys: Vec<Key> = (0..n).map(|i| Key::new(format!("stock:{i}"))).collect();
        h.bench(&format!("plan/build+compile@{label}-keys"), || {
            let mut program = TxnProgram::new("ticket");
            for key in &keys {
                program.intern(key.clone());
            }
            let program = program
                .read(KeyRef::Param(0))
                .write(
                    KeyRef::Param(0),
                    OpTemplate::Add {
                        delta: DeltaRef::Const(-1),
                        lower: Some(0),
                        upper: None,
                    },
                )
                .write(
                    KeyRef::Derived(KeyTemplate::new().lit("order:0:").param(1)),
                    OpTemplate::SetParam(2),
                );
            CompiledPlan::compile(program, &config).expect("the ticket program compiles")
        });
    }
}

/// Keys written between two maintenance rounds in the rows below: the first
/// ones interned, as the ticket workload's stock records are.
const HOT_KEYS: u32 = 1_000;

/// A replica holding `keys` committed records, checkpointed.
fn loaded_replica(keys: u32) -> Replica {
    let mut replica = Replica::new();
    for k in 0..keys {
        let key = Key::new(format!("key:{k}"));
        replica.install(&key, 1, Value::Int(0), TxnId::new(9, u64::from(k)));
    }
    replica.checkpoint();
    replica
}

/// One more committed version on each hot key.
fn commit_hot_keys(replica: &mut Replica, round: u64) {
    for k in 0..HOT_KEYS {
        let id = KeyId(k);
        let txn = TxnId::new(0, round * u64::from(HOT_KEYS) + u64::from(k));
        let version = replica.read_id(id).version;
        let set = WriteOp::Set(Value::Int(round as i64));
        replica
            .accept_id(id, RecordOption::new(txn, version, set))
            .expect("bench accept");
        replica.decide_id(id, txn, true);
    }
}

/// What a replica's five-second maintenance tick and its crash-restart cost,
/// against how much it stores, at a fixed number of keys written in between.
/// Every row but the restart includes the 1 000 commits that dirty the store
/// (`storage/1k-commits` is that part alone, on a store of the hot keys
/// only): with shared pages the price of a checkpoint is paid by the first
/// write to each page after it, and from the second checkpoint on that
/// write copies into a recycled page, so neither allocates.
fn bench_maintenance(h: &mut Harness) {
    let mut replica = loaded_replica(HOT_KEYS);
    let mut round = 0u64;
    h.bench("storage/1k-commits", || {
        round += 1;
        commit_hot_keys(&mut replica, round);
        // Keep the log short over a long run; a checkpoint of 1 000 keys is
        // small change on either side.
        if round.is_multiple_of(64) {
            replica.checkpoint();
        }
    });
    for (label, keys) in [("300k", 300_000), ("30k", 30_000)] {
        let mut replica = loaded_replica(keys);
        let mut round = 0u64;
        h.bench(&format!("wal/checkpoint@{label}-keys/1k-dirty"), || {
            round += 1;
            commit_hot_keys(&mut replica, round);
            replica.checkpoint();
        });
    }
    let replica = loaded_replica(300_000);
    h.bench("wal/recover@300k-keys", || {
        Replica::recover(replica.wal().clone())
    });
}

fn bench_intern(h: &mut Harness) {
    // What a replica does with each key a message carries: a key it holds
    // already (a hit), and one it meets for the first time (a new order
    // key, say). A new key grows the table, so that row interns a tenth
    // more keys into a fresh copy of the table each batch.
    let key = |i: u32| Key::from_fmt(format_args!("order:{i}"));
    for (label, n) in [("100k", 100_000u32), ("1m", 1_000_000)] {
        let mut table = KeyInterner::new();
        for i in 0..n {
            table.intern(&key(i));
        }
        let mut rng = DetRng::new(7);
        let seen: Vec<Key> = (0..4096)
            .map(|_| key(rng.index(n as usize) as u32))
            .collect();
        let mut at = 0;
        h.bench(&format!("intern/hit@{label}-keys"), || {
            at = (at + 1) % seen.len();
            table.intern(&seen[at])
        });
        let fresh: Vec<Key> = (n..n + n / 10).map(key).collect();
        h.bench_batched(
            &format!("intern/new-key@{label}-keys"),
            fresh.len() as u64,
            || table.clone(),
            |table, i| table.intern(&fresh[i as usize]),
        );
    }
}

fn bench_tcp(h: &mut Harness) {
    // One reactor drive's outbox, 32 votes, to a hosted actor (a mailbox
    // run; the row drains it too) and to a remote one (one socket write to
    // a peer that reads and discards). Per envelope is the row over 32.
    const BATCH: usize = 32;
    const HOSTED: ActorId = ActorId(1);
    const REMOTE: ActorId = ActorId(2);
    let transport = TcpTransport::new();
    let (tx, rx) = mailbox(1 << 16);
    transport.host(HOSTED.0, tx);
    let peer = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let peer_addr = peer.local_addr().expect("its address");
    transport.add_route(REMOTE.0, peer_addr);
    let reader = std::thread::spawn(move || {
        let Ok((mut conn, _)) = peer.accept() else {
            return;
        };
        let mut buf = [0u8; 1 << 16];
        while let Ok(1..) = conn.read(&mut buf) {}
    });
    let vote = |to: ActorId, i: usize| Envelope {
        from: ActorId(7),
        to,
        msg: Msg::Vote {
            txn: TxnId::new(0, i as u64),
            key: Key::new("order:1234"),
            site: SiteId(1),
            accept: true,
            reason: None,
            round: 0,
        },
    };
    let mut batch = Vec::with_capacity(BATCH);
    h.bench("tcp/send_many-hosted@32-envelopes", || {
        batch.extend((0..BATCH).map(|i| vote(HOSTED, i)));
        transport.send_many(&mut batch);
        while rx.try_recv().is_ok() {}
    });
    h.bench("tcp/send_many-remote@32-envelopes", || {
        batch.extend((0..BATCH).map(|i| vote(REMOTE, i)));
        transport.send_many(&mut batch);
    });
    transport.stop();
    // With the remote row filtered out nothing has connected: this one
    // ends the reader's accept (and, closed at once, its read).
    drop(std::net::TcpStream::connect(peer_addr));
    let _ = reader.join();
}

fn bench_zipf(h: &mut Harness) {
    let zipf = Zipf::new(1_000_000, 0.99);
    let mut rng = DetRng::new(3);
    h.bench("workload/zipf_sample", || zipf.sample(&mut rng));
}

fn main() {
    let mut h = Harness::from_args();
    bench_quorum(&mut h);
    bench_likelihood(&mut h);
    bench_ecdf(&mut h);
    bench_histogram(&mut h);
    bench_metrics(&mut h);
    bench_timers(&mut h);
    bench_reactor(&mut h);
    bench_storage(&mut h);
    bench_plan(&mut h);
    bench_maintenance(&mut h);
    bench_intern(&mut h);
    bench_tcp(&mut h);
    bench_zipf(&mut h);
}
