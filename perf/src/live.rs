//! The three live workloads: set-up, the measured phase, the drain, and the
//! correctness check that turns wrong outputs into failed operations.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use planet_cluster::{Harvest, PlaneConfig};
use planet_mdcc::{Msg, TxnSpec};
use planet_plan::{KeyRef, TxnProgram};
use planet_sim::{Actor, ActorId};
use planet_storage::{Key, Store, Value, WriteOp};
use planet_workload::{stock_key, ticket_program, TicketConfig};

use crate::cluster::{
    coordinator_id, replica, Cluster, LiveCounters, TransportKind, CLIENT_SITES, SITES,
};
use crate::estimators::SLICES;
use crate::generator::{
    Done, Generator, OpState, Pace, Preloader, ReadCheck, Report, PLAN_LOOKUP, PLAN_PURCHASE,
    TIMER_START,
};
use crate::measure::{Mark, PhaseReport, Recorder};
use crate::procstat;
use crate::script::{
    kv_script, ticket_script, Op, Script, KV_KEYS, KV_PRELOADED, TICKET_EVENTS, TICKET_STOCK,
    TICKET_THETA,
};

/// Virtual clients of the closed-loop workloads, over both client sites.
pub const CLOSED_CLIENTS: usize = 128;
/// Offered load of the open-loop workload, transactions per second over
/// both client sites: about 40 % of the ~10 000 the channel cluster
/// sustains on the interpreted path at the seed commit.
pub const OPEN_RATE: f64 = 4000.0;
/// Tickets per purchase.
const PER_PURCHASE: i64 = 1;
/// How long the harness waits for any single report before it gives up on
/// the run.
const REPORT_TIMEOUT: Duration = Duration::from_secs(30);
/// How long the cluster is left alone after the last decision, so that
/// `Decide`/`Apply` traffic behind it lands (cross-site delay is 1 ms).
const QUIESCE: Duration = Duration::from_millis(300);

/// What a live workload submits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Compiled ticket purchases and look-ups, closed loop.
    Ticket,
    /// Interpreted two-key reads and read-modify-writes, open loop.
    KeyValue,
}

/// One live workload, sized.
#[derive(Debug, Clone, Copy)]
pub struct LiveSpec {
    /// Transport under the cluster.
    pub kind: TransportKind,
    /// Traffic shape.
    pub traffic: Traffic,
    /// Completions before measuring starts.
    pub warmup: u64,
    /// Completions measured.
    pub measured: u64,
    /// Input seed.
    pub seed: u64,
}

/// The inputs of a run, generated once from the seed.
struct Inputs {
    scripts: Vec<Script>,
    keys: Arc<Vec<Key>>,
    preload: Vec<TxnSpec>,
    plans: Vec<Vec<(u32, TxnProgram)>>,
    pace: Pace,
    check: ReadCheck,
}

/// The ticket workloads' configuration of `planet_workload`'s program.
pub fn ticket_config() -> TicketConfig {
    TicketConfig {
        events: TICKET_EVENTS,
        theta: TICKET_THETA,
        initial_stock: TICKET_STOCK,
        tickets_per_purchase: PER_PURCHASE,
        ..Default::default()
    }
}

/// The read-only look-up program: read the stock record of a
/// parameter-chosen event.
pub fn lookup_program() -> TxnProgram {
    let mut program = TxnProgram::new("stock-lookup");
    for event in 0..TICKET_EVENTS {
        program.intern(stock_key(event));
    }
    program.read(KeyRef::Param(0))
}

/// The key `i` of the key-value workload.
pub fn kv_key(i: u64) -> Key {
    Key::new(format!("kv:{i}"))
}

/// The writes that seed a workload's keyspace, one single-key transaction
/// each: every event's stock, or the hottest keys at value 1 (version 1, so
/// that `value == version` holds from the start).
pub fn preload_specs(traffic: Traffic) -> Vec<TxnSpec> {
    match traffic {
        Traffic::Ticket => (0..TICKET_EVENTS)
            .map(|e| TxnSpec::write_one(stock_key(e), WriteOp::Set(Value::Int(TICKET_STOCK))))
            .collect(),
        Traffic::KeyValue => (0..KV_PRELOADED)
            .map(|i| TxnSpec::write_one(kv_key(i), WriteOp::Set(Value::Int(1))))
            .collect(),
    }
}

fn inputs(spec: &LiveSpec) -> Inputs {
    let total = (spec.warmup + spec.measured) as usize;
    match spec.traffic {
        Traffic::Ticket => {
            // Each site gets more than half the work, so a faster site does
            // not run dry before the fixed count is reached; the run stops
            // at the count, not at the end of a script.
            let per_site = total * 6 / 10 + CLOSED_CLIENTS;
            // Interning 10 000 keys into a program is quadratic at the seed
            // commit: build the look-up program once.
            let lookup = lookup_program();
            Inputs {
                scripts: (0..CLIENT_SITES)
                    .map(|site| ticket_script(spec.seed, site, per_site))
                    .collect(),
                keys: Arc::new(Vec::new()),
                preload: preload_specs(spec.traffic),
                plans: (0..CLIENT_SITES)
                    .map(|site| {
                        vec![
                            (PLAN_PURCHASE, ticket_program(&ticket_config(), site as u8)),
                            (PLAN_LOOKUP, lookup.clone()),
                        ]
                    })
                    .collect(),
                pace: Pace::Closed {
                    clients: CLOSED_CLIENTS / CLIENT_SITES,
                },
                check: ReadCheck::Ticket {
                    stock: TICKET_STOCK,
                    per: PER_PURCHASE,
                },
            }
        }
        Traffic::KeyValue => {
            let per_site = total.div_ceil(CLIENT_SITES);
            Inputs {
                scripts: (0..CLIENT_SITES)
                    .map(|site| {
                        kv_script(spec.seed, site, per_site, OPEN_RATE / CLIENT_SITES as f64)
                    })
                    .collect(),
                keys: Arc::new((0..KV_KEYS).map(kv_key).collect()),
                preload: preload_specs(spec.traffic),
                plans: vec![Vec::new(); CLIENT_SITES],
                pace: Pace::Open,
                check: ReadCheck::Counter,
            }
        }
    }
}

/// A cluster that is set up and waiting for `TIMER_START`.
struct Ready {
    cluster: Cluster,
    reports: Receiver<Report>,
    stop: Arc<AtomicBool>,
    generators: Vec<ActorId>,
}

/// One complete set-up: build the cluster, write the initial keyspace
/// through the protocol, compile and register the plans.
fn set_up(spec: &LiveSpec, inputs: &Inputs, traced: bool) -> Result<Ready, String> {
    let mut cluster = Cluster::start(spec.kind, spec.seed, traced);
    let (tx, reports) = channel();
    let stop = Arc::new(AtomicBool::new(false));
    let mut members: Vec<(usize, Box<dyn Actor<Msg>>)> = vec![(
        0,
        Box::new(Preloader::new(
            coordinator_id(0),
            inputs.preload.clone(),
            tx.clone(),
        )),
    )];
    for site in 0..CLIENT_SITES {
        members.push((
            site,
            Box::new(Generator::new(
                coordinator_id(site),
                inputs.scripts[site].clone(),
                inputs.pace,
                inputs.keys.clone(),
                inputs.plans[site].clone(),
                inputs.check,
                tx.clone(),
                stop.clone(),
            )),
        ));
    }
    let ids = cluster.spawn_clients(members);
    let (mut preloaded, mut ready) = (false, 0);
    while !preloaded || ready < CLIENT_SITES {
        match reports.recv_timeout(REPORT_TIMEOUT) {
            Ok(Report::Preloaded { failed: 0 }) => preloaded = true,
            Ok(Report::Preloaded { failed }) => {
                cluster.shutdown();
                return Err(format!("{failed} preload writes did not commit"));
            }
            Ok(Report::Ready) => ready += 1,
            Ok(_) => {}
            Err(_) => {
                cluster.shutdown();
                return Err("set-up did not finish".to_string());
            }
        }
    }
    Ok(Ready {
        cluster,
        reports,
        stop,
        generators: ids[1..].to_vec(),
    })
}

/// What one live run measured.
pub struct LiveRun {
    /// Slice-median estimates of the measured phase.
    pub phase: PhaseReport,
    /// Every set-up's time, seconds.
    pub setups_s: Vec<f64>,
    /// Operations the correctness check found wrong.
    pub wrong: u64,
    /// What the check compared.
    pub checked: String,
    /// Every completion's spans (traced runs only).
    pub spans: Vec<Done>,
    /// Which slices the tracer was on for (traced runs only).
    pub traced_slices: Vec<bool>,
    /// Cluster counters over the measured phase.
    pub counters: LiveCounters,
    /// Transactions the cluster decided over its lifetime, preload included.
    pub lifetime_commits: u64,
    /// What was left of the cluster.
    pub harvest: Harvest,
    /// The tracer's envelope sample (traced runs only).
    pub sampled: Vec<planet_cluster::Envelope>,
    /// Tracer totals `(envelopes, remote, send_ns)` (traced only).
    pub tracer_totals: (u64, u64, u64),
    /// The plane the cluster ran.
    pub plane: PlaneConfig,
    /// Threads of the process when the measured phase ended.
    pub threads: u64,
}

/// Run one live workload: `setups` complete set-ups back to back (the last
/// is kept), warm-up, the measured phase, drain, check.
pub fn run(spec: &LiveSpec, setups: usize, traced: bool) -> Result<LiveRun, String> {
    let inputs = inputs(spec);
    let mut setups_s = Vec::new();
    let mut ready = None;
    for i in 0..setups {
        let began = Instant::now();
        let r = set_up(spec, &inputs, traced)?;
        setups_s.push(began.elapsed().as_secs_f64());
        if i + 1 < setups {
            r.cluster.shutdown();
        } else {
            ready = Some(r);
        }
    }
    let Ready {
        cluster,
        reports,
        stop,
        generators,
    } = ready.ok_or("no set-up ran")?;

    let mut recorder = Recorder::new(spec.warmup, spec.measured);
    let mut spans: Vec<Done> = Vec::with_capacity(if traced {
        (spec.warmup + spec.measured) as usize
    } else {
        0
    });
    let mut traced_slices = vec![false; SLICES];
    let start = Instant::now();
    let mut before = LiveCounters::default();
    for &id in &generators {
        cluster.inject_client(
            id,
            Msg::ClientTimer {
                kind: TIMER_START,
                tag: 0,
            },
        );
    }
    let mut idle = 0;
    let mut after = None;
    let mut threads = 0;
    while idle < generators.len() {
        match reports.recv_timeout(REPORT_TIMEOUT) {
            Ok(Report::Batch(batch)) => {
                for done in batch {
                    let was = recorder.current_slice();
                    recorder.push(done.sample, &mut || {
                        Mark::now(start.elapsed().as_secs_f64())
                    });
                    let now = recorder.current_slice();
                    if now != was {
                        if was.is_none() && now.is_some() {
                            before = cluster.counters();
                        }
                        // Trace every other slice, so that tracing's own
                        // price is the gap between neighbouring slices.
                        if let (Some(tracer), Some(slice)) = (cluster.tracer(), now) {
                            let on = slice % 2 == 1;
                            traced_slices[slice] = on;
                            tracer.on.store(on, Ordering::Relaxed);
                        }
                    }
                    if traced && now.is_some() {
                        spans.push(done);
                    }
                    if recorder.done() && after.is_none() {
                        after = Some(cluster.counters());
                        threads = procstat::snapshot().threads;
                        stop.store(true, Ordering::Relaxed);
                        if let Some(tracer) = cluster.tracer() {
                            tracer.on.store(false, Ordering::Relaxed);
                        }
                    }
                }
            }
            Ok(Report::Idle) => idle += 1,
            Ok(_) => {}
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                stop.store(true, Ordering::Relaxed);
                cluster.shutdown();
                return Err(format!(
                    "no report for {}s with {} of {} completions in",
                    REPORT_TIMEOUT.as_secs(),
                    recorder.counts().attempted,
                    spec.warmup + spec.measured
                ));
            }
        }
    }
    if !recorder.done() {
        cluster.shutdown();
        return Err(format!(
            "scripts ran out after {} of {} completions",
            recorder.counts().attempted,
            spec.warmup + spec.measured
        ));
    }
    std::thread::sleep(QUIESCE);
    let plane = cluster.plane();
    let (sampled, tracer_totals) = match cluster.tracer() {
        Some(t) => (
            std::mem::take(&mut *t.sample.lock().expect("lock poisoned")),
            (
                t.envelopes.load(Ordering::Relaxed),
                t.remote.load(Ordering::Relaxed),
                t.send_ns.load(Ordering::Relaxed),
            ),
        ),
        None => (Vec::new(), (0, 0, 0)),
    };
    let harvest = cluster.shutdown();
    let (wrong, checked, lifetime_commits) = check(spec.traffic, &inputs, &harvest, &generators);
    Ok(LiveRun {
        phase: recorder.finish(),
        setups_s,
        wrong,
        checked,
        spans,
        traced_slices,
        counters: after.unwrap_or_default().since(before),
        lifetime_commits,
        harvest,
        sampled,
        tracer_totals,
        plane,
        threads,
    })
}

/// Compare the three replicas' stores key by key; returns the number of
/// keys on which some replica differs from replica 0.
fn disagreements(stores: &[&Store]) -> u64 {
    let first = stores[0];
    let mut bad = 0u64;
    for other in &stores[1..] {
        if other.len() != first.len() {
            bad += (other.len() as i64 - first.len() as i64).unsigned_abs();
        }
    }
    for key in first.keys() {
        let a = first.read(key);
        for other in &stores[1..] {
            let b = other.read(key);
            if (a.version, &a.value) != (b.version, &b.value) {
                bad += 1;
            }
        }
    }
    bad
}

/// The per-run correctness check. Returns the number of wrong outputs, a
/// one-line description of what was compared, and the transactions the
/// cluster committed over its lifetime (preload included).
fn check(
    traffic: Traffic,
    inputs: &Inputs,
    harvest: &Harvest,
    generator_ids: &[ActorId],
) -> (u64, String, u64) {
    let stores: Vec<&Store> = (0..SITES)
        .map(|s| replica(harvest, s).storage().store())
        .collect();
    let mut wrong = disagreements(&stores);
    let generators: Vec<&Generator> = generator_ids
        .iter()
        .filter_map(|id| harvest.actor_as::<Generator>(*id))
        .collect();
    if generators.len() != CLIENT_SITES {
        return (1, "generators missing from the harvest".to_string(), 0);
    }
    let mut commits = inputs.preload.len() as u64;
    // Operations whose fate the client does not know (timed out): the
    // totals may include them or not.
    let mut uncertain = 0u64;
    match traffic {
        Traffic::Ticket => {
            let mut bought: HashMap<u32, i64> = HashMap::new();
            let mut orders = 0u64;
            for (site, generator) in generators.iter().enumerate() {
                for (i, (op, state)) in generator
                    .script()
                    .ops
                    .iter()
                    .zip(generator.states())
                    .enumerate()
                {
                    match (op, state) {
                        (_, OpState::Failed) => uncertain += 1,
                        (Op::Purchase(event), OpState::Committed) => {
                            commits += 1;
                            orders += 1;
                            *bought.entry(*event).or_default() += PER_PURCHASE;
                            // Every committed order key reads back, at
                            // every replica, with the event it was for.
                            let key = Key::new(format!("order:{site}:{i}"));
                            for store in &stores {
                                if store.read(&key).value != Value::Int(*event as i64) {
                                    wrong += 1;
                                }
                            }
                        }
                        (_, OpState::Committed) => commits += 1,
                        _ => {}
                    }
                }
            }
            // Total stock decrement equals purchases committed × tickets
            // per purchase, event by event.
            let mut slack = uncertain as i64 * PER_PURCHASE;
            for event in 0..TICKET_EVENTS {
                let expect = TICKET_STOCK - bought.get(&(event as u32)).copied().unwrap_or(0);
                let have = stores[0]
                    .read(&stock_key(event))
                    .value
                    .as_int()
                    .unwrap_or(-1);
                let gap = expect - have;
                if gap < 0 || gap > slack {
                    wrong += 1;
                } else {
                    slack -= gap;
                }
            }
            (
                wrong,
                format!(
                    "stock of {TICKET_EVENTS} events against {orders} committed purchases, every order key at {SITES} replicas, {} keys across replicas",
                    stores[0].len()
                ),
                commits,
            )
        }
        Traffic::KeyValue => {
            let mut writes = 0i64;
            for generator in &generators {
                for (op, state) in generator.script().ops.iter().zip(generator.states()) {
                    match (op, state) {
                        (_, OpState::Failed) => uncertain += 1,
                        (Op::KvRmw(..), OpState::Committed) => {
                            commits += 1;
                            writes += 2;
                        }
                        (_, OpState::Committed) => commits += 1,
                        _ => {}
                    }
                }
            }
            // Every committed write added one to a value and a version:
            // the values sum to the writes, and value == version per key.
            let mut sum = 0i64;
            for key in stores[0].keys() {
                let read = stores[0].read(key);
                let value = read.value.as_int().unwrap_or(-1);
                if value != read.version as i64 {
                    wrong += 1;
                }
                sum += value;
            }
            let expect = inputs.preload.len() as i64 + writes;
            if sum < expect || sum > expect + 2 * uncertain as i64 {
                wrong += (sum - expect).unsigned_abs();
            }
            (
                wrong,
                format!(
                    "{} keys: value == version on each, values sum to {sum} for {writes} committed key writes + {} preloaded, replicas agree",
                    stores[0].len(),
                    inputs.preload.len()
                ),
                commits,
            )
        }
    }
}
