//! In-process transport: mailboxes wired through a delay-injecting fabric.
//!
//! [`ChannelTransport`] routes [`Envelope`]s between node mailboxes in one
//! process. With no network model attached it delivers immediately (useful
//! for tests); with a [`NetworkModel`] every send passes through a *fabric*
//! thread that samples the exact same delay/loss/partition model the
//! deterministic simulator uses — base-delay matrix, log-normal jitter,
//! heavy tails, scheduled spikes and partitions — and holds the message
//! until its wall-clock delivery time. One configuration therefore shapes
//! both worlds: a `NetworkModel` built for a simulation drops into a live
//! cluster unchanged, with [`SimTime`] re-read as microseconds since cluster
//! start.
//!
//! The fabric is *sharded*: deliveries are spread over
//! [`PlaneConfig::fabric_shards`] threads by destination actor, so one
//! overloaded thread is not the serialization point of the whole cluster.
//! Sharding by destination keeps per-(src, dst) FIFO intact — a directed
//! pair always lands on the same shard, whose delivery heap enforces
//! no-overtaking exactly as the single-threaded fabric did. Batches handed
//! over via [`Transport::send_many`] reach each shard as one channel send,
//! and each shard wakeup delivers every message due within the next
//! [`PlaneConfig::fabric_slack_us`] (the *coalescing horizon*) rather than
//! exactly one — messages arrive at most that much early, in exchange for
//! one sleep/wake cycle per window instead of per message.
//!
//! Backpressure and shedding: destination mailboxes are bounded
//! ([`PlaneConfig::mailbox_capacity`]). Protocol traffic *blocks* at a full
//! mailbox — loss is confined to the network model, never to queueing. A
//! client submission (`Msg::Submit` or `Msg::SubmitPlan`, told apart from
//! protocol traffic by `Msg::submission`), however, is *shed*: bounced
//! straight back to its `reply_to` as a `TxnDone { outcome: TimedOut }`, so
//! an overdriven coordinator pushes load back to clients (who count it like
//! any other timeout) instead of wedging the plane.
//! [`ChannelTransport::shed`] counts the bounces.
//!
//! [`SimTime`]: planet_sim::SimTime
//! [`PlaneConfig::fabric_shards`]: crate::plane::PlaneConfig::fabric_shards
//! [`PlaneConfig::fabric_slack_us`]: crate::plane::PlaneConfig::fabric_slack_us
//! [`PlaneConfig::mailbox_capacity`]: crate::plane::PlaneConfig::mailbox_capacity

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Duration;

use planet_sim::{DetRng, NetworkModel, SimTime, SiteId};

use crate::node::{Clock, Packet};
use crate::plane::{MailboxSender, TrySendError};
use crate::transport::{shed_bounce, Envelope, Transport};

enum FabricCmd {
    Env(Envelope),
    Batch(Vec<Envelope>),
    Stop,
}

struct HeldMsg {
    at: SimTime,
    seq: u64,
    env: Envelope,
    /// Destination mailbox, resolved at admission so the delivery path
    /// touches no shared route lock. If the node stops before delivery the
    /// send fails on the closed gate and counts as a drop, exactly as a
    /// delivery-time lookup would have.
    tx: MailboxSender,
}

impl PartialEq for HeldMsg {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeldMsg {}
impl PartialOrd for HeldMsg {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeldMsg {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Route table shards: actor id → (site, mailbox). Sharded so the hot
/// delivery path never funnels every thread through one mutex.
const ROUTE_SHARDS: usize = 16;

struct RouteEntry {
    site: SiteId,
    mailbox: MailboxSender,
}

/// Most emptied batch vectors kept for `send_many` to refill.
const SPARE_BATCHES: usize = 8;

/// The in-process transport.
pub struct ChannelTransport {
    routes: Vec<Mutex<HashMap<u32, RouteEntry>>>,
    clock: Clock,
    fabric_txs: Vec<Sender<FabricCmd>>,
    fabric_joins: Mutex<Vec<JoinHandle<()>>>,
    /// Batch vectors the fabric has emptied, at most [`SPARE_BATCHES`]:
    /// a flush hands its batch over in one of these instead of a new one.
    spare_batches: Mutex<Vec<Vec<Envelope>>>,
    // Loss accounting only — never synchronizes. check:allow(atomics)
    dropped: AtomicU64,
    shed: AtomicU64, // check:allow(atomics)
}

fn route_shards() -> Vec<Mutex<HashMap<u32, RouteEntry>>> {
    (0..ROUTE_SHARDS)
        .map(|_| Mutex::new(HashMap::new()))
        .collect()
}

impl ChannelTransport {
    /// A transport that delivers instantly (no delay model). `clock` should
    /// be the same clock the nodes run on.
    pub fn direct(clock: Clock) -> std::sync::Arc<Self> {
        std::sync::Arc::new(ChannelTransport {
            routes: route_shards(),
            clock,
            fabric_txs: Vec::new(),
            fabric_joins: Mutex::new(Vec::new()),
            spare_batches: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        })
    }

    /// A transport whose deliveries are shaped by `net`: each send is held
    /// on a fabric thread for a sampled delay (or dropped, per the model's
    /// loss and partition rules) before reaching the destination mailbox.
    /// `seed` feeds the fabric's deterministic jitter sampler. Deliveries
    /// are sharded over `shards` fabric threads by destination actor
    /// (per-(src, dst) FIFO is preserved; see the module docs).
    ///
    /// `slack_us` is the delivery coalescing horizon: each fabric wakeup
    /// delivers everything due within the next `slack_us` microseconds, so
    /// a sleep/wake cycle covers a window of messages instead of one.
    /// Messages may arrive up to `slack_us` early; pass 0 for exact-time
    /// delivery.
    pub fn with_network(
        clock: Clock,
        net: NetworkModel,
        seed: u64,
        shards: usize,
        slack_us: u64,
    ) -> std::sync::Arc<Self> {
        let shards = shards.max(1);
        let mut txs = Vec::with_capacity(shards);
        let mut rxs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = channel::<FabricCmd>();
            txs.push(tx);
            rxs.push(rx);
        }
        let transport = std::sync::Arc::new(ChannelTransport {
            routes: route_shards(),
            clock,
            fabric_txs: txs,
            fabric_joins: Mutex::new(Vec::new()),
            spare_batches: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        });
        let mut joins = Vec::with_capacity(shards);
        for (shard, rx) in rxs.into_iter().enumerate() {
            let fabric = transport.clone();
            let net = net.clone();
            let join = std::thread::Builder::new()
                .name(format!("planet-fabric-{shard}"))
                .spawn(move || fabric.run_fabric(rx, net, seed ^ (shard as u64), slack_us))
                .expect("spawn fabric thread");
            joins.push(join);
        }
        *transport.fabric_joins.lock().expect("lock poisoned") = joins;
        transport
    }

    /// Register an actor's mailbox and site. Must happen before traffic for
    /// that actor flows; sends to unregistered actors are counted as drops.
    pub fn register(&self, id: u32, site: SiteId, mailbox: MailboxSender) {
        let shard = id as usize % ROUTE_SHARDS;
        self.routes[shard]
            .lock()
            .expect("lock poisoned")
            .insert(id, RouteEntry { site, mailbox });
    }

    /// Messages lost so far — to the model's loss/partition rules, to
    /// unregistered destinations, or to already-stopped nodes.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Client submits shed so far: bounced back as timed-out `TxnDone`s
    /// because the destination mailbox was full.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Stop the fabric threads, discarding messages still in flight. Called
    /// by the cluster at shutdown, after the nodes have stopped.
    pub fn stop(&self) {
        for tx in &self.fabric_txs {
            let _ = tx.send(FabricCmd::Stop);
        }
        // Take the handles out of the lock before joining: a fabric thread
        // that touches this registry on its way out would deadlock against
        // a join performed with the guard still held.
        let joins: Vec<_> = self
            .fabric_joins
            .lock()
            .expect("lock poisoned")
            .drain(..)
            .collect();
        for join in joins {
            let _ = join.join();
        }
    }

    fn mailbox_of(&self, id: u32) -> Option<MailboxSender> {
        let shard = id as usize % ROUTE_SHARDS;
        self.routes[shard]
            .lock()
            .expect("lock poisoned")
            .get(&id)
            .map(|entry| entry.mailbox.clone())
    }

    /// Resolve a route through a fabric-thread-local cache, falling back to
    /// the shared (locked) table on a miss. Registration happens before
    /// traffic for an actor flows and routes are never replaced, so a
    /// cached entry stays valid for the life of the cluster; misses are not
    /// cached, so an actor registered later (clients) is still found.
    fn route_cached<'a>(
        &self,
        cache: &'a mut HashMap<u32, (SiteId, MailboxSender)>,
        id: u32,
    ) -> Option<&'a (SiteId, MailboxSender)> {
        match cache.entry(id) {
            Entry::Occupied(e) => Some(e.into_mut()),
            Entry::Vacant(v) => {
                let shard = id as usize % ROUTE_SHARDS;
                let found = self.routes[shard]
                    .lock()
                    .expect("lock poisoned")
                    .get(&id)
                    .map(|entry| (entry.site, entry.mailbox.clone()))?;
                Some(v.insert(found))
            }
        }
    }

    /// Hand an envelope to its destination mailbox, applying the plane's
    /// backpressure policy. The route lock is released before any mailbox
    /// operation (sends may block).
    fn deliver(&self, env: Envelope) {
        let Some(tx) = self.mailbox_of(env.to.0) else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        self.deliver_to(&tx, env);
    }

    /// [`deliver`](Self::deliver) with the destination mailbox already in
    /// hand (the fabric resolves routes once, at admission).
    fn deliver_to(&self, tx: &MailboxSender, env: Envelope) {
        if let Some((reply_to, tag)) = env.msg.submission() {
            // Client load: shed rather than block — a full coordinator
            // bounces the submit back as a timeout.
            match tx.try_send(Packet::Env(env)) {
                Ok(()) => {}
                Err(TrySendError::Full(Packet::Env(env))) => {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    self.deliver(shed_bounce(env.to, reply_to, tag, self.clock.now()));
                }
                Err(_) => {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        } else if tx.send(Packet::Env(env)).is_err() {
            // Destination node already stopped.
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The fabric loop: hold each envelope for its sampled delay, then
    /// deliver. Per-(src, dst) delivery order is preserved the same way the
    /// engine preserves it: a message never overtakes an earlier one on the
    /// same directed pair (TCP gives this for free; the in-process fabric
    /// must enforce it). Each shard owns its heap, RNG and FIFO map — no
    /// state is shared between fabric threads.
    fn run_fabric(&self, rx: Receiver<FabricCmd>, net: NetworkModel, seed: u64, slack_us: u64) {
        let slack = planet_sim::SimDuration::from_micros(slack_us);
        let mut rng = DetRng::new(seed ^ 0xFAB0_5EED_0000_0001);
        let mut heap: BinaryHeap<Reverse<HeldMsg>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut fifo_high: HashMap<(u32, u32), SimTime> = HashMap::new();
        let mut routes: HashMap<u32, (SiteId, MailboxSender)> = HashMap::new();
        let mut admit =
            |env: Envelope,
             heap: &mut BinaryHeap<Reverse<HeldMsg>>,
             fifo_high: &mut HashMap<(u32, u32), SimTime>,
             routes: &mut HashMap<u32, (SiteId, MailboxSender)>| {
                let now = self.clock.now();
                let src = match self.route_cached(routes, env.from.0) {
                    Some(&(site, _)) => site,
                    None => {
                        self.dropped.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                };
                let (dst, tx) = match self.route_cached(routes, env.to.0) {
                    Some(&(site, ref mailbox)) => (site, mailbox.clone()),
                    None => {
                        self.dropped.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                };
                match net.sample_delay(src, dst, now, &mut rng) {
                    None => {
                        self.dropped.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(delay) => {
                        let pair = (env.from.0, env.to.0);
                        let mut at = now + delay;
                        if let Some(&high) = fifo_high.get(&pair) {
                            if at <= high {
                                at = high + planet_sim::SimDuration::from_micros(1);
                            }
                        }
                        fifo_high.insert(pair, at);
                        heap.push(Reverse(HeldMsg { at, seq, env, tx }));
                        seq += 1;
                    }
                }
            };
        loop {
            // Deliver everything due within the coalescing horizon. Without
            // the horizon each µs-distinct due time costs its own futex
            // sleep/wake (~the whole per-message fabric budget at scale);
            // with it one wakeup clears a `slack`-wide window and the
            // destination mailboxes receive bursts their task drains in a
            // single drive. Heap order is due-time order, so early
            // delivery cannot reorder a (src, dst) pair.
            let horizon = self.clock.now() + slack;
            loop {
                match heap.peek() {
                    Some(Reverse(held)) if held.at <= horizon => {
                        let Reverse(held) = heap.pop().expect("peeked");
                        self.deliver_to(&held.tx, held.env);
                    }
                    _ => break,
                }
            }
            // Sleep exactly until the next held message is due (it is, by
            // construction, more than `slack` away); a new command wakes
            // the channel immediately, so no polling cap is needed.
            let wait = match heap.peek() {
                Some(Reverse(held)) => held.at.since(self.clock.now()).to_std(),
                None => Duration::from_millis(500),
            };
            match rx.recv_timeout(wait) {
                Ok(FabricCmd::Env(env)) => admit(env, &mut heap, &mut fifo_high, &mut routes),
                Ok(FabricCmd::Batch(mut envs)) => {
                    for env in envs.drain(..) {
                        admit(env, &mut heap, &mut fifo_high, &mut routes);
                    }
                    let mut spare = self.spare_batches.lock().expect("lock poisoned");
                    if spare.len() < SPARE_BATCHES {
                        spare.push(envs);
                    }
                }
                Ok(FabricCmd::Stop) | Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
    }

    fn fabric_shard(&self, dst: u32) -> &Sender<FabricCmd> {
        &self.fabric_txs[dst as usize % self.fabric_txs.len()]
    }
}

impl Transport for ChannelTransport {
    fn send(&self, env: Envelope) {
        if self.fabric_txs.is_empty() {
            self.deliver(env);
        } else if self
            .fabric_shard(env.to.0)
            .send(FabricCmd::Env(env))
            .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn send_many(&self, envs: &mut Vec<Envelope>) {
        if self.fabric_txs.is_empty() {
            for env in envs.drain(..) {
                self.deliver(env);
            }
            return;
        }
        if self.fabric_txs.len() == 1 {
            // One shard: the whole batch is one channel handoff, in a
            // vector the fabric emptied earlier. Append rather than
            // `mem::take` so the caller keeps its outbox allocation too.
            let spare = self.spare_batches.lock().expect("lock poisoned").pop();
            let mut batch = spare.unwrap_or_default();
            batch.append(envs);
            if self.fabric_txs[0].send(FabricCmd::Batch(batch)).is_err() {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        // Group by destination shard, preserving within-shard order, then
        // hand each shard its sub-batch in one send.
        let n = self.fabric_txs.len();
        let mut per_shard: Vec<Vec<Envelope>> = (0..n).map(|_| Vec::new()).collect();
        for env in envs.drain(..) {
            per_shard[env.to.0 as usize % n].push(env);
        }
        for (shard, batch) in per_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            if self.fabric_txs[shard]
                .send(FabricCmd::Batch(batch))
                .is_err()
            {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}
