//! The live cluster the benchmark drives: three sites, one replica shard
//! and one coordinator each, on either transport, with the whole shape
//! written down here and nothing derived from the host.
//!
//! * **channel**, untraced — the product's own assembly:
//!   `LiveCluster::builder(..).plane(..).network(..).seed(..).build()`, its
//!   `spawn_client_pool` and its `Harvest`. These runs produce the
//!   end-to-end numbers, so a later change to the builder, to the pool
//!   chunking or to the id layout is measured. One [`Reactor`] with two
//!   workers hosts the six server actors and the clients; a
//!   [`ChannelTransport`] with one fabric shard injects 2 ms cross-site and
//!   0.1 ms local round trips.
//! * **channel**, traced — the same parts put together by hand, because
//!   `LiveClusterBuilder` has no way to hand the actors a wrapped transport
//!   and the benchmark's span ([`TracedTransport`]) has to sit around
//!   `Transport::send_many`.
//! * **tcp** — by hand as well: nothing public assembles in-process tcp
//!   nodes. Three planetd-style nodes, each its own [`TcpTransport`]
//!   listening on loopback and its own one-worker reactor, plus a
//!   planet-load-style client node (one worker, one transport, one
//!   connection per client-facing site).
//!
//! Either way a stopped cluster is a `planet_cluster::Harvest`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use planet_cluster::{
    mailbox, ChannelTransport, Clock, Envelope, Harvest, LiveCluster, NodeHandle, Packet,
    PlaneConfig, PoolHandle, PoolMembers, Reactor, TcpTransport, Transport,
};
use planet_mdcc::{ClusterConfig, CoordinatorActor, Msg, Protocol, ReplicaActor};
use planet_sim::{Actor, ActorId, Metrics, NetworkModel, SiteId};

/// Sites in the live cluster.
pub const SITES: usize = 3;
/// Sites that clients attach to; the last site only replicates.
pub const CLIENT_SITES: usize = 2;
/// First actor id of the client pool, as `LiveCluster` numbers it (servers
/// use `0..2*SITES`).
const CLIENT_ID_BASE: u32 = 2 * SITES as u32;

/// Which fabric carries the cluster's messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process mailboxes behind the delay-injecting fabric.
    Channel,
    /// Loopback sockets and the wire codec.
    Tcp,
}

/// The message plane, in full. `workers` is per reactor: the channel
/// cluster has one reactor, the tcp deployment one per node.
pub fn plane(kind: TransportKind) -> PlaneConfig {
    PlaneConfig {
        max_batch: 64,
        mailbox_capacity: 4096,
        fabric_shards: 1,
        fabric_slack_us: 200,
        workers: match kind {
            TransportKind::Channel => 2,
            TransportKind::Tcp => 1,
        },
    }
}

/// The protocol configuration every live workload runs: three sites on the
/// fast path, one shard per site, and otherwise `ClusterConfig::new`'s
/// defaults, as `planetd` runs them (10 s server-side timeout, replica sweep
/// and checkpoint check every 5 s, checkpoint at 4096 log records).
pub fn cluster_config() -> ClusterConfig {
    ClusterConfig::new(SITES, Protocol::Fast)
}

/// 2 ms between sites, 0.1 ms within one, with the simulator's default
/// jitter model — the model every live bench in the repo uses.
pub fn lan() -> NetworkModel {
    let rtt: Vec<Vec<f64>> = (0..SITES)
        .map(|i| (0..SITES).map(|j| if i == j { 0.1 } else { 2.0 }).collect())
        .collect();
    NetworkModel::from_rtt_ms(&rtt)
}

/// The replica actor id at `site`.
pub fn replica_id(site: usize) -> ActorId {
    ActorId(site as u32)
}

/// The coordinator actor id at `site`.
pub fn coordinator_id(site: usize) -> ActorId {
    ActorId((SITES + site) as u32)
}

/// How many envelopes a traced run keeps for the replay probes.
const SAMPLE_CAP: usize = 4096;
/// One envelope in this many is kept until the cap is reached.
const SAMPLE_EVERY: u64 = 97;

/// What the benchmark's span around `Transport::send_many` records.
#[derive(Default)]
pub struct Tracer {
    /// Spans are recorded only while set; the harness clears it on every
    /// other slice to price the tracing itself.
    pub on: AtomicBool,
    /// Envelopes handed to a transport.
    pub envelopes: AtomicU64,
    /// Of those, envelopes whose destination is on another node (tcp: they
    /// cross a socket and the codec).
    pub remote: AtomicU64,
    /// Nanoseconds inside the transport's send path.
    pub send_ns: AtomicU64,
    /// A sample of the traffic, for the replay probes.
    pub sample: Mutex<Vec<Envelope>>,
}

/// A transport wrapped in the tracer's span.
pub struct TracedTransport {
    inner: Arc<dyn Transport>,
    tracer: Arc<Tracer>,
    /// The node this transport belongs to: envelopes for actors it hosts
    /// do not leave it. `None` on the channel transport (one node).
    node: Option<usize>,
}

impl TracedTransport {
    fn is_remote(&self, to: ActorId) -> bool {
        match self.node {
            None => false,
            Some(node) => node_of(to) != node,
        }
    }

    fn note(&self, envs: &[Envelope]) {
        let t = &self.tracer;
        let before = t.envelopes.fetch_add(envs.len() as u64, Ordering::Relaxed);
        let remote = envs.iter().filter(|e| self.is_remote(e.to)).count() as u64;
        t.remote.fetch_add(remote, Ordering::Relaxed);
        for (i, env) in envs.iter().enumerate() {
            if (before + i as u64).is_multiple_of(SAMPLE_EVERY) {
                let mut sample = t.sample.lock().expect("lock poisoned");
                if sample.len() < SAMPLE_CAP {
                    sample.push(env.clone());
                }
            }
        }
    }
}

/// The tcp node (0..SITES = servers, SITES = the client node) hosting an
/// actor id.
pub fn node_of(id: ActorId) -> usize {
    if id.0 >= CLIENT_ID_BASE {
        SITES
    } else {
        id.0 as usize % SITES
    }
}

impl Transport for TracedTransport {
    fn send(&self, env: Envelope) {
        if !self.tracer.on.load(Ordering::Relaxed) {
            return self.inner.send(env);
        }
        self.note(std::slice::from_ref(&env));
        let began = Instant::now();
        self.inner.send(env);
        self.tracer
            .send_ns
            .fetch_add(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn send_many(&self, envs: &mut Vec<Envelope>) {
        if !self.tracer.on.load(Ordering::Relaxed) {
            return self.inner.send_many(envs);
        }
        self.note(envs);
        let began = Instant::now();
        self.inner.send_many(envs);
        self.tracer
            .send_ns
            .fetch_add(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Counters read from the running cluster's atomics; two readings bracket
/// a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveCounters {
    /// Reactor worker µs spent driving tasks.
    pub busy_us: u64,
    /// Reactor worker µs spent parked.
    pub idle_us: u64,
    /// Task drives.
    pub drives: u64,
    /// Times a worker ran dry and parked.
    pub parks: u64,
    /// Tasks taken from a peer's queue.
    pub steals: u64,
    /// tcp: coalesced socket writes.
    pub flushes: u64,
    /// tcp: bytes those writes carried.
    pub bytes: u64,
}

impl LiveCounters {
    /// What was counted since `earlier`.
    pub fn since(self, earlier: LiveCounters) -> LiveCounters {
        LiveCounters {
            busy_us: self.busy_us - earlier.busy_us,
            idle_us: self.idle_us - earlier.idle_us,
            drives: self.drives - earlier.drives,
            parks: self.parks - earlier.parks,
            steals: self.steals - earlier.steals,
            flushes: self.flushes - earlier.flushes,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// A running cluster.
pub struct Cluster {
    kind: TransportKind,
    plane: PlaneConfig,
    /// The product's assembly (untraced channel runs); everything below it
    /// is empty then.
    product: Option<LiveCluster>,
    reactors: Vec<Arc<Reactor>>,
    servers: Vec<NodeHandle>,
    channel: Option<Arc<ChannelTransport>>,
    tcp: Vec<Arc<TcpTransport>>,
    tracer: Option<Arc<Tracer>>,
    pool: Option<PoolHandle>,
}

impl Cluster {
    /// Build and start the three-site cluster on `kind`. With `traced`, the
    /// transports are wrapped in the tracer's span (initially off).
    pub fn start(kind: TransportKind, seed: u64, traced: bool) -> Cluster {
        let plane = plane(kind);
        let config = cluster_config();
        if kind == TransportKind::Channel && !traced {
            let product = LiveCluster::builder(config)
                .plane(plane)
                .network(lan())
                .seed(seed)
                .build();
            return Cluster {
                kind,
                plane,
                product: Some(product),
                reactors: Vec::new(),
                servers: Vec::new(),
                channel: None,
                tcp: Vec::new(),
                tracer: None,
                pool: None,
            };
        }
        let clock = Clock::new();
        let tracer = traced.then(|| Arc::new(Tracer::default()));
        let replica_ids: Vec<ActorId> = (0..SITES).map(replica_id).collect();
        let wrap = |inner: Arc<dyn Transport>, node: Option<usize>| -> Arc<dyn Transport> {
            match &tracer {
                Some(tracer) => Arc::new(TracedTransport {
                    inner,
                    tracer: tracer.clone(),
                    node,
                }),
                None => inner,
            }
        };
        let actors_of = |site: usize| -> Vec<(ActorId, Box<dyn Actor<Msg>>)> {
            vec![
                (
                    replica_id(site),
                    Box::new(ReplicaActor::new(config.clone(), replica_ids.clone(), 0)),
                ),
                (
                    coordinator_id(site),
                    Box::new(CoordinatorActor::new(
                        config.clone(),
                        replica_ids.clone(),
                        SiteId(site as u8),
                    )),
                ),
            ]
        };

        let mut reactors = Vec::new();
        let mut servers = Vec::new();
        let mut channel = None;
        let mut tcp = Vec::new();
        match kind {
            TransportKind::Channel => {
                let reactor = Reactor::new(clock, plane, seed);
                let transport = ChannelTransport::with_network(
                    clock,
                    lan(),
                    seed,
                    plane.fabric_shards,
                    plane.fabric_slack_us,
                );
                // Register every mailbox before any task starts: an
                // actor's on_start may already send to a peer.
                let mut pending = Vec::new();
                for site in 0..SITES {
                    for (id, actor) in actors_of(site) {
                        let (tx, rx) = mailbox(plane.mailbox_capacity);
                        transport.register(id.0, SiteId(site as u8), tx.clone());
                        pending.push((id, site, actor, tx, rx));
                    }
                }
                let shared = wrap(transport.clone(), None);
                for (id, site, actor, tx, rx) in pending {
                    servers.push(reactor.spawn(
                        id,
                        SiteId(site as u8),
                        actor,
                        tx,
                        rx,
                        shared.clone(),
                    ));
                }
                reactors.push(reactor);
                channel = Some(transport);
            }
            TransportKind::Tcp => {
                for _ in 0..=SITES {
                    tcp.push(TcpTransport::new());
                }
                let addrs: Vec<_> = tcp[..SITES]
                    .iter()
                    .map(|t| {
                        let any = "127.0.0.1:0".parse().expect("loopback address");
                        t.listen(any).expect("bind a loopback port")
                    })
                    .collect();
                for transport in &tcp {
                    for (site, addr) in addrs.iter().enumerate() {
                        transport.add_route(replica_id(site).0, *addr);
                        transport.add_route(coordinator_id(site).0, *addr);
                    }
                }
                for (site, transport) in tcp.iter().enumerate().take(SITES) {
                    let reactor = Reactor::new(clock, plane, seed ^ site as u64);
                    let shared = wrap(transport.clone(), Some(site));
                    for (id, actor) in actors_of(site) {
                        let (tx, rx) = mailbox(plane.mailbox_capacity);
                        transport.host(id.0, tx.clone());
                        servers.push(reactor.spawn(
                            id,
                            SiteId(site as u8),
                            actor,
                            tx,
                            rx,
                            shared.clone(),
                        ));
                    }
                    reactors.push(reactor);
                }
                // The client node's reactor.
                reactors.push(Reactor::new(clock, plane, seed ^ SITES as u64));
            }
        }
        Cluster {
            kind,
            plane,
            product: None,
            reactors,
            servers,
            channel,
            tcp,
            tracer,
            pool: None,
        }
    }

    /// The plane the cluster runs.
    pub fn plane(&self) -> PlaneConfig {
        self.plane
    }

    /// The tracer of a traced cluster.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Spawn the clients, each attached to the site given with it (sites
    /// ascending), and return their ids in order. The product's cluster
    /// gets one `spawn_client_pool` per site; a cluster built by hand one
    /// task multiplexing all `members`, which on tcp runs on the client
    /// node's reactor and reaches the servers through that node's transport
    /// (one connection per site it talks to).
    pub fn spawn_clients(&mut self, members: Vec<(usize, Box<dyn Actor<Msg>>)>) -> Vec<ActorId> {
        if let Some(product) = &mut self.product {
            let mut ids = Vec::new();
            let mut members = members.into_iter().peekable();
            while let Some((site, actor)) = members.next() {
                let mut group = vec![actor];
                while let Some((_, actor)) = members.next_if(|m| m.0 == site) {
                    group.push(actor);
                }
                ids.extend(product.spawn_client_pool(site, group));
            }
            return ids;
        }
        assert!(self.pool.is_none(), "one client pool per cluster");
        let (tx, rx) = mailbox(self.plane.mailbox_capacity);
        let mut pool_members: PoolMembers = Vec::new();
        for (i, (site, actor)) in members.into_iter().enumerate() {
            let id = ActorId(CLIENT_ID_BASE + i as u32);
            match self.kind {
                TransportKind::Channel => self
                    .channel
                    .as_ref()
                    .expect("channel transport")
                    .register(id.0, SiteId(site as u8), tx.clone()),
                TransportKind::Tcp => self.tcp[SITES].host(id.0, tx.clone()),
            }
            pool_members.push((id, actor));
        }
        let ids: Vec<ActorId> = pool_members.iter().map(|(id, _)| *id).collect();
        let (reactor, transport): (&Arc<Reactor>, Arc<dyn Transport>) = match self.kind {
            TransportKind::Channel => (
                &self.reactors[0],
                self.channel.clone().expect("channel transport"),
            ),
            TransportKind::Tcp => (&self.reactors[SITES], self.tcp[SITES].clone()),
        };
        let transport = match &self.tracer {
            Some(tracer) => Arc::new(TracedTransport {
                inner: transport,
                tracer: tracer.clone(),
                node: (self.kind == TransportKind::Tcp).then_some(SITES),
            }),
            None => transport,
        };
        self.pool = Some(reactor.spawn_pool(pool_members, SiteId(0), tx, rx, transport));
        ids
    }

    /// Deliver `msg` to client `id` as if self-sent (how the harness starts
    /// a phase).
    pub fn inject_client(&self, id: ActorId, msg: Msg) {
        let env = Envelope {
            from: id,
            to: id,
            msg,
        };
        if let Some(product) = &self.product {
            product.transport().send(env);
        } else if let Some(pool) = &self.pool {
            let _ = pool.mailbox.send(Packet::Env(env));
        }
    }

    /// Read the cluster's running counters.
    pub fn counters(&self) -> LiveCounters {
        let mut c = LiveCounters::default();
        let product = self.product.as_ref().and_then(|p| p.reactor());
        for reactor in self.reactors.iter().chain(product) {
            let (busy, idle, drives, parks) = reactor.worker_stats();
            c.busy_us += busy;
            c.idle_us += idle;
            c.drives += drives;
            c.parks += parks;
            c.steals += reactor.steals();
        }
        for transport in &self.tcp {
            let (flushes, bytes) = transport.io_stats();
            c.flushes += flushes;
            c.bytes += bytes;
        }
        c
    }

    /// Stop everything — clients, then coordinators, then replicas, then
    /// transports and reactors — and hand back the actors and metrics.
    /// Every thread the cluster started has been joined on return.
    pub fn shutdown(self) -> Harvest {
        if let Some(product) = self.product {
            return product.shutdown();
        }
        let mut actors = HashMap::new();
        if let Some(pool) = self.pool {
            // As `LiveCluster::shutdown` does: the pool's one registry rides
            // on its first member.
            let (members, metrics) = pool.stop_and_join();
            let mut metrics = Some(metrics);
            for (id, actor) in members {
                actors.insert(id.0, (actor, metrics.take().unwrap_or_else(Metrics::new)));
            }
        }
        // Coordinators (the higher ids) before replicas, so in-flight
        // transactions stop generating replica traffic first.
        let mut servers = self.servers;
        servers.sort_by_key(|h| std::cmp::Reverse(h.id));
        for handle in servers {
            let id = handle.id.0;
            actors.insert(id, handle.stop_and_join());
        }
        let (mut dropped, mut shed) = (0, 0);
        if let Some(transport) = &self.channel {
            transport.stop();
            dropped += transport.dropped();
            shed += transport.shed();
        }
        for transport in &self.tcp {
            transport.stop();
            dropped += transport.dropped();
            shed += transport.shed();
        }
        for reactor in &self.reactors {
            reactor.shutdown();
        }
        Harvest {
            actors,
            dropped,
            shed,
        }
    }
}

/// The replica actor of `site` in a harvest.
pub fn replica(harvest: &Harvest, site: usize) -> &ReplicaActor {
    harvest
        .actor_as(replica_id(site))
        .expect("replica actor in the harvest")
}
