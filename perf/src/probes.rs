//! The traced run's replay probes: a span around each layer's public
//! functions, driven by inputs sampled from the workload's own traffic, on
//! an otherwise idle process. Each probe returns exact per-call figures
//! (total elapsed over the calls made), never a bucketed histogram value.

use std::collections::VecDeque;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use planet_cluster::{
    mailbox, wire, ChannelTransport, Clock, Envelope, PlaneConfig, Reactor, TcpTransport, Transport,
};
use planet_mdcc::{ClusterConfig, CoordinatorActor, Msg, ReplicaActor, TxnSpec};
use planet_plan::{CompiledPlan, PlanParam, TxnProgram};
use planet_predict::{KeyState, LikelihoodModel, TxnSnapshot};
use planet_sim::{
    drive_into, Actor, ActorId, Context, DetRng, Effect, Metrics, NetworkModel, SimTime, SiteId,
    TurnInputs,
};
use planet_storage::{Key, LogRecord, RecordOption, Store, TxnId, Value, Wal, WriteOp};

use crate::estimators::percentile;

/// How fast the host is right now: the median of ten bursts of a fixed
/// hash loop (about 25 ms each on the reference host), in ms per burst.
/// A diagnostic only (`host.spin_ms`): no metric is rescaled by it.
pub fn host_spin_ms() -> f64 {
    let bursts: Vec<f64> = (0..10u64)
        .map(|burst| {
            let began = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ burst;
            for i in 0..15_000_000u64 {
                x = (x ^ i).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(17);
            }
            std::hint::black_box(x);
            began.elapsed().as_secs_f64() * 1000.0
        })
        .collect();
    crate::estimators::median(&bursts).unwrap_or(0.0)
}

/// `(encode ns/msg, decode ns/msg)` of the wire codec over `envs`.
pub fn wire_codec(envs: &[Envelope]) -> (f64, f64) {
    if envs.is_empty() {
        return (0.0, 0.0);
    }
    let rounds = (200_000 / envs.len()).max(1);
    let mut buf = Vec::with_capacity(1 << 16);
    let began = Instant::now();
    for _ in 0..rounds {
        for env in envs {
            buf.clear();
            wire::encode_into(std::hint::black_box(env), &mut buf);
            std::hint::black_box(&buf);
        }
    }
    let encode = began.elapsed().as_nanos() as f64 / (rounds * envs.len()) as f64;
    let frames: Vec<Vec<u8>> = envs.iter().map(wire::encode).collect();
    let began = Instant::now();
    for _ in 0..rounds {
        for frame in &frames {
            let _ = std::hint::black_box(wire::decode(std::hint::black_box(frame)));
        }
    }
    let decode = began.elapsed().as_nanos() as f64 / (rounds * frames.len()) as f64;
    (encode, decode)
}

fn ping(tag: u64, from: u32, to: u32) -> Envelope {
    Envelope {
        from: ActorId(from),
        to: ActorId(to),
        msg: Msg::ClientTimer { kind: 0, tag },
    }
}

/// Median round trip of one small envelope echoed between two idle
/// transports over loopback, µs.
pub fn tcp_loopback_rtt_us(capacity: usize) -> f64 {
    let (a, b) = (TcpTransport::new(), TcpTransport::new());
    let any = "127.0.0.1:0".parse().expect("loopback address");
    let Ok(addr) = a.listen(any) else {
        return 0.0;
    };
    b.add_route(1, addr);
    let (tx1, rx1) = mailbox(capacity);
    let (tx2, rx2) = mailbox(capacity);
    a.host(1, tx1);
    b.host(2, tx2);
    let wait = Duration::from_secs(2);
    let mut rtts: Vec<u64> = Vec::new();
    for i in 0..2_200u64 {
        let began = Instant::now();
        b.send(ping(i, 2, 1));
        if rx1.recv_timeout(wait).is_err() {
            break;
        }
        // The reply goes down the route A learned from the request.
        a.send(ping(i, 1, 2));
        if rx2.recv_timeout(wait).is_err() {
            break;
        }
        if i >= 200 {
            rtts.push(began.elapsed().as_nanos() as u64);
        }
    }
    a.stop();
    b.stop();
    percentile(&mut rtts, 0.5).map_or(0.0, |ns| ns as f64 / 1000.0)
}

/// Nanoseconds per message of `ChannelTransport::send_many` handing
/// batches of `plane.max_batch` to the fabric for a drained mailbox.
pub fn channel_send_ns(plane: &PlaneConfig, net: NetworkModel) -> f64 {
    let clock = Clock::new();
    let transport =
        ChannelTransport::with_network(clock, net, 7, plane.fabric_shards, plane.fabric_slack_us);
    let (tx, rx) = mailbox(plane.mailbox_capacity);
    transport.register(1, SiteId(0), tx);
    let batch = plane.max_batch.max(1);
    let mut envs = Vec::with_capacity(batch);
    let (mut ns, mut sent) = (0u128, 0u64);
    for round in 0..400u64 {
        envs.extend((0..batch as u64).map(|i| ping(round * batch as u64 + i, 1, 1)));
        let began = Instant::now();
        transport.send_many(&mut envs);
        let took = began.elapsed().as_nanos();
        let mut got = 0;
        while got < batch && rx.recv_timeout(Duration::from_secs(2)).is_ok() {
            got += 1;
        }
        if round >= 40 {
            ns += took;
            sent += batch as u64;
        }
    }
    transport.stop();
    ns as f64 / sent.max(1) as f64
}

/// An actor that reports the instant each message reaches it.
struct Stamp(std::sync::mpsc::Sender<Instant>);

impl Actor<Msg> for Stamp {
    fn on_message(&mut self, _from: ActorId, _msg: Msg, _ctx: &mut Context<'_, Msg>) {
        let _ = self.0.send(Instant::now());
    }
}

/// A transport for probes whose actors send nothing.
struct NullTransport;

impl Transport for NullTransport {
    fn send(&self, _env: Envelope) {}
}

/// Median time from a mailbox send to the task running on an idle reactor
/// of `plane.workers` workers, µs.
pub fn reactor_wake_rtt_us(plane: &PlaneConfig) -> f64 {
    let reactor = Reactor::new(Clock::new(), *plane, 11);
    let (tx, rx) = mailbox(plane.mailbox_capacity);
    let (stamp_tx, stamps) = channel();
    let node = reactor.spawn(
        ActorId(1),
        SiteId(0),
        Box::new(Stamp(stamp_tx)),
        tx,
        rx,
        Arc::new(NullTransport),
    );
    let mut wakes: Vec<u64> = Vec::new();
    for i in 0..2_200u64 {
        // Let the worker park, so the wake crosses the parker every time.
        std::thread::sleep(Duration::from_micros(200));
        let began = Instant::now();
        node.inject(Msg::ClientTimer { kind: 0, tag: i });
        let Ok(ran) = stamps.recv_timeout(Duration::from_secs(2)) else {
            break;
        };
        if i >= 200 {
            wakes.push(ran.saturating_duration_since(began).as_nanos() as u64);
        }
    }
    node.stop_and_join();
    reactor.shutdown();
    percentile(&mut wakes, 0.5).map_or(0.0, |ns| ns as f64 / 1000.0)
}

/// What the single-threaded protocol loop measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriveLoop {
    /// Mean time of one coordinator `on_message`, ns.
    pub coordinator_step_ns: f64,
    /// Mean time of one replica `on_message`, ns.
    pub replica_step_ns: f64,
    /// Messages routed per committed transaction (client-bound included).
    pub msgs_per_commit: f64,
    /// Coordinator steps per committed transaction.
    pub coordinator_steps_per_commit: f64,
    /// Replica steps per committed transaction.
    pub replica_steps_per_commit: f64,
    /// Committed transactions per second of the loop.
    pub commits_per_s: f64,
}

/// What the protocol loop is asked to run.
pub enum Submission {
    /// Interpreted.
    Spec(TxnSpec),
    /// Compiled: `(plan, params)`.
    Plan(u32, Vec<PlanParam>),
}

/// Run `setup` specs and then `work` through one coordinator and three
/// replicas with no runtime at all: a queue, `planet_sim::drive_into`, and
/// nothing else. Timers are dropped (no transaction times out in a loop
/// that never waits). Only `work` is measured.
pub fn drive_loop(
    config: &ClusterConfig,
    plans: &[(u32, TxnProgram)],
    setup: Vec<TxnSpec>,
    work: Vec<Submission>,
) -> DriveLoop {
    const CLIENT: ActorId = ActorId(100);
    let n = config.num_sites;
    let replica_ids: Vec<ActorId> = (0..n).map(|i| ActorId(i as u32)).collect();
    let coordinator_id = ActorId(n as u32);
    let mut actors: Vec<Box<dyn Actor<Msg>>> = Vec::new();
    for _ in 0..n {
        actors.push(Box::new(ReplicaActor::new(
            config.clone(),
            replica_ids.clone(),
            0,
        )));
    }
    let mut coordinator = CoordinatorActor::new(config.clone(), replica_ids, SiteId(0));
    for (plan, program) in plans {
        if coordinator.install_plan(*plan, program.clone()).is_err() {
            return DriveLoop::default();
        }
    }
    actors.push(Box::new(coordinator));

    let mut rng = DetRng::new(3);
    let mut metrics = Metrics::new();
    let mut effects: Vec<Effect<Msg>> = Vec::new();
    let mut queue: VecDeque<(ActorId, ActorId, Msg)> = VecDeque::new();
    let mut clock_us = 1u64;
    let mut out = DriveLoop::default();
    let (mut coord_ns, mut coord_steps, mut rep_ns, mut rep_steps) = (0u128, 0u64, 0u128, 0u64);
    let (mut msgs, mut commits) = (0u64, 0u64);

    let mut pump =
        |queue: &mut VecDeque<(ActorId, ActorId, Msg)>, measured: bool, commits: &mut u64| {
            while let Some((from, to, msg)) = queue.pop_front() {
                if measured {
                    msgs += 1;
                }
                if to == CLIENT {
                    if let Msg::TxnDone { outcome, .. } = msg {
                        if outcome.is_commit() {
                            *commits += 1;
                        }
                    }
                    continue;
                }
                let idx = to.0 as usize;
                clock_us += 1;
                let inputs = TurnInputs {
                    now: SimTime::from_micros(clock_us),
                    self_id: to,
                    self_site: SiteId((idx % n) as u8),
                };
                let began = Instant::now();
                drive_into(
                    actors[idx].as_mut(),
                    inputs,
                    from,
                    msg,
                    &mut rng,
                    &mut metrics,
                    &mut effects,
                );
                let took = began.elapsed().as_nanos();
                if measured {
                    if idx == n {
                        coord_ns += took;
                        coord_steps += 1;
                    } else {
                        rep_ns += took;
                        rep_steps += 1;
                    }
                }
                for effect in effects.drain(..) {
                    if let Effect::Send { dst, msg } = effect {
                        queue.push_back((to, dst, msg));
                    }
                }
            }
        };

    let mut ignored = 0u64;
    for (tag, spec) in setup.into_iter().enumerate() {
        queue.push_back((
            CLIENT,
            coordinator_id,
            Msg::Submit {
                spec,
                reply_to: CLIENT,
                tag: tag as u64,
            },
        ));
        pump(&mut queue, false, &mut ignored);
    }
    let began = Instant::now();
    for (tag, submission) in work.into_iter().enumerate() {
        let tag = tag as u64;
        let msg = match submission {
            Submission::Spec(spec) => Msg::Submit {
                spec,
                reply_to: CLIENT,
                tag,
            },
            Submission::Plan(plan, params) => Msg::SubmitPlan {
                plan,
                params,
                reply_to: CLIENT,
                tag,
            },
        };
        queue.push_back((CLIENT, coordinator_id, msg));
        pump(&mut queue, true, &mut commits);
    }
    let wall = began.elapsed().as_secs_f64();
    let per = |a: u128, b: u64| a as f64 / b.max(1) as f64;
    out.coordinator_step_ns = per(coord_ns, coord_steps);
    out.replica_step_ns = per(rep_ns, rep_steps);
    out.msgs_per_commit = msgs as f64 / commits.max(1) as f64;
    out.coordinator_steps_per_commit = coord_steps as f64 / commits.max(1) as f64;
    out.replica_steps_per_commit = rep_steps as f64 / commits.max(1) as f64;
    out.commits_per_s = commits as f64 / wall.max(1e-9);
    out
}

/// `(compile µs, instantiate ns)` of `program`: the median of five
/// compilations against `config`, and the mean instantiation of `params`.
pub fn plan_costs(
    program: &TxnProgram,
    config: &ClusterConfig,
    params: &[Vec<PlanParam>],
) -> (f64, f64) {
    let mut compiles: Vec<u64> = Vec::new();
    let mut compiled = None;
    for _ in 0..5 {
        let source = program.clone();
        let began = Instant::now();
        let plan = CompiledPlan::compile(source, config);
        compiles.push(began.elapsed().as_nanos() as u64);
        compiled = plan.ok();
    }
    let compile_us = percentile(&mut compiles, 0.5).map_or(0.0, |ns| ns as f64 / 1000.0);
    let (Some(plan), false) = (compiled, params.is_empty()) else {
        return (compile_us, 0.0);
    };
    let rounds = (100_000 / params.len()).max(1);
    let began = Instant::now();
    for _ in 0..rounds {
        for p in params {
            let _ = std::hint::black_box(plan.instantiate(std::hint::black_box(p)));
        }
    }
    let instantiate_ns = began.elapsed().as_nanos() as f64 / (rounds * params.len()) as f64;
    (compile_us, instantiate_ns)
}

/// Per-call figures of the storage layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageCosts {
    /// `Store::read`, ns.
    pub read_ns: f64,
    /// `Store::accept_id` (validate + make pending), ns.
    pub accept_ns: f64,
    /// `Store::decide_id` (commit a pending option), ns.
    pub decide_ns: f64,
    /// `Wal::append` of an accepted-option record, ns.
    pub wal_append_ns: f64,
}

/// Replay `writes` — the `(key, op)` pairs of sampled transactions —
/// against a fresh store and log: accept each, decide each, read each, and
/// append each acceptance to the log, as a replica does.
pub fn storage_costs(writes: &[(Key, WriteOp)]) -> StorageCosts {
    if writes.is_empty() {
        return StorageCosts::default();
    }
    let mut store = Store::new();
    let ids: Vec<_> = writes.iter().map(|(key, _)| store.intern(key)).collect();
    // Give commutative decrements something to draw on.
    for (i, (id, (_, op))) in ids.iter().zip(writes).enumerate() {
        if op.is_commutative() && store.read_id(*id).version == 0 {
            store.install_id(*id, 1, Value::Int(i64::MAX / 2), TxnId::new(9, i as u64));
        }
    }
    let options: Vec<RecordOption> = writes
        .iter()
        .zip(&ids)
        .enumerate()
        .map(|(i, ((_, op), id))| {
            RecordOption::new(
                TxnId::new(0, i as u64),
                store.read_id(*id).version,
                op.clone(),
            )
        })
        .collect();
    let n = writes.len() as f64;
    let mut costs = StorageCosts::default();
    // Accept and decide alternate, so a physical write never meets its own
    // predecessor still pending; each half is timed on its own.
    let (mut accept, mut decide) = (0u128, 0u128);
    for ((id, option), i) in ids.iter().zip(&options).zip(0u64..) {
        let mut option = option.clone();
        option.read_version = store.read_id(*id).version;
        let began = Instant::now();
        let _ = std::hint::black_box(store.accept_id(*id, option));
        accept += began.elapsed().as_nanos();
        let began = Instant::now();
        std::hint::black_box(store.decide_id(*id, TxnId::new(0, i), true));
        decide += began.elapsed().as_nanos();
    }
    costs.accept_ns = accept as f64 / n;
    costs.decide_ns = decide as f64 / n;
    let began = Instant::now();
    for (key, _) in writes {
        std::hint::black_box(store.read(std::hint::black_box(key)));
    }
    costs.read_ns = began.elapsed().as_nanos() as f64 / n;
    let mut wal = Wal::new();
    let began = Instant::now();
    for ((key, _), option) in writes.iter().zip(&options) {
        wal.append(LogRecord::OptionAccepted {
            key: key.clone(),
            option: option.clone(),
        });
    }
    costs.wal_append_ns = began.elapsed().as_nanos() as f64 / n;
    std::hint::black_box(wal.len());
    costs
}

/// Mean time of one predictor update plus one likelihood query, ns: the
/// work the PLANET client does per observed vote.
pub fn predict_update_ns(num_sites: usize) -> f64 {
    let mut model = LikelihoodModel::new(num_sites, 512);
    let mut rng = DetRng::new(5);
    let quorum = (3 * num_sites).div_ceil(4);
    let rounds = 100_000u64;
    let began = Instant::now();
    for i in 0..rounds {
        let site = (i % num_sites as u64) as u8;
        let elapsed = 20_000 + rng.range_u64(0, 200_000);
        model.observe_vote(site, elapsed, i % 7 != 0, (i % 3) as usize, i % 64);
        let snap = TxnSnapshot {
            keys: vec![KeyState {
                accepts: 1,
                rejects: 0,
                outstanding: (1..num_sites as u8).collect(),
                pending_at_read: (i % 3) as usize,
                key_hash: i % 64,
                quorum,
                voters: num_sites,
            }],
            elapsed_us: elapsed / 2,
        };
        std::hint::black_box(model.likelihood(&snap, 300_000));
    }
    began.elapsed().as_nanos() as f64 / rounds as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::cluster_config;

    #[test]
    fn drive_loop_commits_every_submission_without_a_runtime() {
        let config = cluster_config();
        let key = |i: u64| Key::new(format!("k:{i}"));
        let setup: Vec<TxnSpec> = (0..8)
            .map(|i| TxnSpec::write_one(key(i), WriteOp::Set(Value::Int(1))))
            .collect();
        let work: Vec<Submission> = (0..200)
            .map(|i| Submission::Spec(TxnSpec::write_one(key(i % 8), WriteOp::add(1))))
            .collect();
        let out = drive_loop(&config, &[], setup, work);
        // 200 commits in the measured part, none of the set-up's counted.
        assert!(out.commits_per_s > 0.0);
        assert!(out.coordinator_step_ns > 0.0 && out.replica_step_ns > 0.0);
        // Fast path, one key, three sites: a read, three proposals, a
        // decision at the master and two applies reach replicas.
        assert_eq!(out.replica_steps_per_commit, 7.0);
        assert!(out.msgs_per_commit > out.replica_steps_per_commit);
    }

    #[test]
    fn storage_replay_times_every_call() {
        let writes: Vec<(Key, WriteOp)> = (0..500)
            .map(|i| {
                if i % 2 == 0 {
                    (Key::new("stock"), WriteOp::add_with_floor(-1, 0))
                } else {
                    (Key::new(format!("order:{i}")), WriteOp::Set(Value::Int(i)))
                }
            })
            .collect();
        let costs = storage_costs(&writes);
        assert!(costs.read_ns > 0.0 && costs.accept_ns > 0.0);
        assert!(costs.decide_ns > 0.0 && costs.wal_append_ns > 0.0);
    }

    #[test]
    fn wire_probe_round_trips_its_sample() {
        let envs: Vec<Envelope> = (0..16).map(|i| ping(i, 1, 2)).collect();
        let (encode, decode) = wire_codec(&envs);
        assert!(encode > 0.0 && decode > 0.0);
        assert_eq!(wire_codec(&[]), (0.0, 0.0));
    }
}
