//! # planet-cluster
//!
//! The live deployment mode: every MDCC replica, coordinator and client
//! runs as a task on the [`Reactor`]'s worker threads, exchanging the exact
//! protocol messages of `planet-mdcc` through a pluggable [`Transport`]:
//!
//! * [`ChannelTransport`] — in-process mailboxes behind a delay-injecting
//!   fabric that applies the *same* [`NetworkModel`] the deterministic
//!   simulator uses (jitter, loss, spikes, partitions), with wall-clock
//!   time since cluster start standing in for simulated time: a send is
//!   stamped with its delivery instant and waits in its destination
//!   mailbox, not on a thread of its own.
//! * [`TcpTransport`] — `std::net` sockets with a length-prefixed binary
//!   wire format ([`wire`]), for multi-process deployments: the `planetd`
//!   server binary and the `planet-load` driver.
//!
//! [`LiveCluster::builder`] assembles a cluster on either: every node of a
//! channel cluster, or the tcp nodes of the sites one process hosts.
//!
//! Protocol logic is not duplicated: the reactor funnels every delivered
//! message through [`planet_sim::drive_into`], the same factored step
//! function the simulation engine calls, so a replica behaves identically
//! whether the scheduler is a deterministic event heap or a worker pool.
//! Live runs are *not* replayable (thread interleaving is real); the
//! simulation remains the ground truth for experiments, and this crate is
//! how the same stack serves real traffic.
//!
//! [`NetworkModel`]: planet_sim::NetworkModel

#![warn(missing_docs)]

pub mod channel;
pub mod node;
pub mod plane;
mod poll;
pub mod reactor;
mod sync;
pub mod tcp;
pub mod transport;
pub mod wire;

/// The deleted timer wheel's tick, kept only because the benchmark's
/// open-loop generator rounds its wake-ups to it until its re-base.
pub mod wheel {
    /// The old wheel's tick in microseconds; no timer here uses it.
    pub const DEFAULT_TICK_US: u64 = 1024;
}

pub use channel::ChannelTransport;
pub use node::{CallFn, Clock, NodeHandle, Packet, PoolHandle, PoolMembers};
pub use plane::{
    default_workers, mailbox, MailboxReceiver, MailboxSender, PlaneConfig, TrySendError, Waker,
};
pub use reactor::Reactor;
pub use tcp::TcpTransport;
pub use transport::{Envelope, Io, Transport};

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, OnceLock};

use planet_mdcc::{server_actors, ClusterConfig, Msg};
use planet_sim::{Actor, ActorId, Metrics, NetworkModel, SiteId};

/// What a node's actors send through, given the node's own transport and
/// its index (see [`LiveClusterBuilder::wrap`]).
type Wrap = Box<dyn Fn(Arc<dyn Transport>, Option<usize>) -> Arc<dyn Transport>>;

/// Builder for a [`LiveCluster`].
pub struct LiveClusterBuilder {
    config: ClusterConfig,
    net: Option<NetworkModel>,
    /// Every site's address and the sites this process hosts.
    tcp: Option<(Vec<SocketAddr>, Vec<usize>)>,
    wrap: Wrap,
    seed: u64,
    plane: PlaneConfig,
}

impl LiveClusterBuilder {
    /// Start from a cluster configuration.
    pub fn new(config: ClusterConfig) -> Self {
        LiveClusterBuilder {
            config,
            net: None,
            tcp: None,
            wrap: Box::new(|transport, _| transport),
            seed: 42,
            plane: PlaneConfig::default(),
        }
    }

    /// Tune the message plane (drain batch size, mailbox capacity, delivery
    /// slack, worker count). Defaults to [`PlaneConfig::default`].
    pub fn plane(mut self, plane: PlaneConfig) -> Self {
        self.plane = plane;
        self
    }

    /// Shape deliveries with a network model (default: instant delivery).
    /// The model must cover at least `config.num_sites` sites. Channel
    /// fabric only: a cluster given [`tcp`](Self::tcp) refuses to build.
    pub fn network(mut self, net: NetworkModel) -> Self {
        assert!(
            net.num_sites() >= self.config.num_sites,
            "network model too small for cluster"
        );
        self.net = Some(net);
        self
    }

    /// Seed the per-node and fabric RNGs (jitter sampling, workload key
    /// choice). Live runs are not replayable, but sampling stays
    /// well-defined.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Run over TCP, as a `planetd` deployment does: site `s` serves at
    /// `addrs[s]`, and this process hosts the sites in `hosted`, each as a
    /// node of its own — a [`TcpTransport`] listening on its address (port
    /// 0 allowed; [`LiveCluster::addr`] reports the bound one) and a reactor
    /// seeded `seed ^ site`. Clients go on a client node, as `planet-load`
    /// runs them: no listener, and a reactor seeded `seed ^ n` that the
    /// first client starts. Every node routes to every server id.
    pub fn tcp(mut self, addrs: Vec<SocketAddr>, hosted: impl IntoIterator<Item = usize>) -> Self {
        assert_eq!(addrs.len(), self.config.num_sites, "one address per site");
        let hosted: Vec<usize> = hosted.into_iter().collect();
        assert!(
            hosted.iter().all(|&site| site < addrs.len()),
            "hosted site out of range"
        );
        self.tcp = Some((addrs, hosted));
        self
    }

    /// Hand each node's actors `wrap(transport, node)` instead of the
    /// node's own transport — a span around [`Transport::send_many`], a
    /// fault injector. `node` is `None` on the channel fabric (one node);
    /// on tcp it is a server node's site, or `n` for the client node.
    pub fn wrap(
        mut self,
        wrap: impl Fn(Arc<dyn Transport>, Option<usize>) -> Arc<dyn Transport> + 'static,
    ) -> Self {
        self.wrap = Box::new(wrap);
        self
    }

    /// [`try_build`](Self::try_build), panicking if a hosted site's
    /// address cannot be bound.
    pub fn build(self) -> LiveCluster {
        self.try_build().expect("bind the hosted sites' listeners")
    }

    /// Spawn [`server_actors`] (on tcp, the hosted sites' share) as tasks
    /// on their nodes' reactors, every mailbox registered before the first
    /// spawn: an actor's `on_start` may send to any peer. Fails if a hosted
    /// site's address cannot be bound.
    pub fn try_build(self) -> io::Result<LiveCluster> {
        assert!(
            self.net.is_none() || self.tcp.is_none(),
            "a network model shapes the channel fabric; a tcp cluster runs on real sockets"
        );
        let clock = Clock::new();
        let servers = server_actors(&self.config);
        let make_node = |fabric: Fabric, index: Option<usize>| {
            let own: Arc<dyn Transport> = match &fabric {
                Fabric::Channel(t) => t.clone(),
                Fabric::Tcp(t) => t.clone(),
            };
            Node {
                transport: (self.wrap)(own, index),
                fabric,
                index,
                reactor: OnceLock::new(),
            }
        };
        let (nodes, addrs, listeners) = match self.tcp {
            None => {
                let channel = match self.net {
                    Some(net) => ChannelTransport::with_network(
                        clock,
                        net,
                        self.seed,
                        self.plane.fabric_shards,
                        self.plane.fabric_slack_us,
                    ),
                    None => ChannelTransport::direct(clock),
                };
                let node = make_node(Fabric::Channel(channel), None);
                (vec![node], Vec::new(), Vec::new())
            }
            Some((mut addrs, hosted)) => {
                // Bind first: a taken address fails the build before
                // anything runs, and routes carry the ports bound as 0.
                let mut listeners = Vec::new();
                for &site in &hosted {
                    let listener = TcpListener::bind(addrs[site])?;
                    addrs[site] = listener.local_addr()?;
                    listeners.push(listener);
                }
                let nodes = std::iter::once(addrs.len())
                    .chain(hosted)
                    .map(|index| {
                        let tcp = TcpTransport::new();
                        for (id, site, _) in &servers {
                            tcp.add_route(id.0, addrs[site.0 as usize]);
                        }
                        make_node(Fabric::Tcp(tcp), Some(index))
                    })
                    .collect();
                (nodes, addrs, listeners)
            }
        };
        let mut cluster = LiveCluster {
            clock,
            next_client: servers.len() as u32,
            config: self.config,
            plane: self.plane,
            seed: self.seed,
            nodes,
            addrs,
            servers: Vec::new(),
            clients: Vec::new(),
            pools: Vec::new(),
            stopped: HashMap::new(),
        };
        let pending: Vec<_> = servers
            .into_iter()
            .filter_map(|(id, site, actor)| {
                let node = cluster.node_of(site)?;
                let (tx, rx) = mailbox(cluster.plane.mailbox_capacity);
                node.fabric.host(id, site, tx.clone());
                Some((node, id, site, actor, tx, rx))
            })
            .collect();
        // Accept only now, with every server id routed and every hosted
        // mailbox in place: a peer's frame neither finds its destination
        // missing nor settles its sender's reply path on the inbound
        // connection ([`TcpTransport`]'s learned routes).
        for (node, listener) in cluster.nodes.iter().skip(1).zip(listeners) {
            if let Fabric::Tcp(tcp) = &node.fabric {
                tcp.serve(listener);
            }
        }
        cluster.servers = pending
            .into_iter()
            .map(|(node, id, site, actor, tx, rx)| {
                let transport = node.transport.clone();
                cluster
                    .reactor_of(node)
                    .spawn(id, site, actor, tx, rx, transport)
            })
            .collect();
        Ok(cluster)
    }
}

/// The transport a node owns.
enum Fabric {
    Channel(Arc<ChannelTransport>),
    Tcp(Arc<TcpTransport>),
}

impl Fabric {
    /// Make `id` reachable at `mailbox`.
    fn host(&self, id: ActorId, site: SiteId, mailbox: MailboxSender) {
        match self {
            Fabric::Channel(t) => t.register(id.0, site, mailbox),
            Fabric::Tcp(t) => t.host(id.0, mailbox),
        }
    }

    /// Stop the fabric and return its `(dropped, shed)` counts.
    fn stop(&self) -> (u64, u64) {
        // Left to right: stop first, then read the final counts.
        let ((), dropped, shed) = match self {
            Fabric::Channel(t) => (t.stop(), t.dropped(), t.shed()),
            Fabric::Tcp(t) => (t.stop(), t.dropped(), t.shed()),
        };
        (dropped, shed)
    }
}

/// One transport and the reactor its actors run on.
struct Node {
    fabric: Fabric,
    /// What the node's actors send through: the fabric, wrapped.
    transport: Arc<dyn Transport>,
    /// `None` on the channel fabric; on tcp the site, or `n` for the
    /// client node.
    index: Option<usize>,
    /// Started by the node's first spawn ([`LiveCluster::reactor_of`]).
    reactor: OnceLock<Arc<Reactor>>,
}

/// Everything harvested from a stopped cluster: each actor (downcastable to
/// its concrete type) with the metrics its node collected.
pub struct Harvest {
    /// Actor and metrics by actor id.
    pub actors: HashMap<u32, (Box<dyn Actor<Msg>>, Metrics)>,
    /// Messages the transport dropped (loss model, partitions, or sends to
    /// stopped nodes during shutdown).
    pub dropped: u64,
    /// Client submits the transport shed at full mailboxes (each bounced
    /// back to its client as a timed-out `TxnDone`).
    pub shed: u64,
}

impl Harvest {
    /// Borrow a harvested actor downcast to its concrete type.
    pub fn actor_as<T: Actor<Msg>>(&self, id: ActorId) -> Option<&T> {
        let (actor, _) = self.actors.get(&id.0)?;
        let any: &dyn std::any::Any = actor.as_ref();
        any.downcast_ref::<T>()
    }

    /// All node metrics merged into one registry (histograms merge;
    /// counters add).
    pub fn merged_metrics(&self) -> Metrics {
        let mut merged = Metrics::new();
        for (_, metrics) in self.actors.values() {
            for (name, hist) in metrics.histograms() {
                merged.histogram(name).merge(hist);
            }
            for (name, value) in metrics.counters() {
                merged.counter(name).add(value);
            }
        }
        merged
    }
}

/// A live MDCC cluster — the deployment-mode counterpart of the simulated
/// cluster built by `planet_mdcc::build_cluster`, with the same actors
/// under the same ids. Actors run as tasks on reactors: one node (one
/// transport, one reactor) for everything on the channel fabric; on tcp one
/// node per hosted site plus the client node.
pub struct LiveCluster {
    clock: Clock,
    config: ClusterConfig,
    plane: PlaneConfig,
    seed: u64,
    /// First the node clients run on — on the channel fabric, the only
    /// node; then on tcp one node per hosted site.
    nodes: Vec<Node>,
    /// Tcp: where each site serves (hosted sites: the bound address).
    addrs: Vec<SocketAddr>,
    /// Server tasks in id order: replicas shard-major, then coordinators.
    servers: Vec<NodeHandle>,
    /// Client nodes, spawned on demand.
    clients: Vec<NodeHandle>,
    /// Pooled client groups (many actors per task), spawned on demand.
    pools: Vec<PoolHandle>,
    /// Actors and metrics of the tasks [`stop_tasks`](Self::stop_tasks)
    /// stopped, by actor id.
    stopped: HashMap<u32, (Box<dyn Actor<Msg>>, Metrics)>,
    next_client: u32,
}

impl LiveCluster {
    /// Start building a cluster.
    pub fn builder(config: ClusterConfig) -> LiveClusterBuilder {
        LiveClusterBuilder::new(config)
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The shared wall clock (origin = cluster start).
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// The replica actor id for `(site, shard)`.
    pub fn replica(&self, site: usize, shard: usize) -> ActorId {
        self.config.replica_id(site, shard)
    }

    /// The coordinator actor id at `site`.
    pub fn coordinator(&self, site: usize) -> ActorId {
        self.config.coordinator_id(site)
    }

    /// The address site `site` serves at (tcp only). A hosted site's is
    /// the address its listener bound.
    pub fn addr(&self, site: usize) -> Option<SocketAddr> {
        self.addrs.get(site).copied()
    }

    /// The transport clients send through, as they see it (wrapped): direct
    /// sends from harness code.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.nodes[0].transport
    }

    /// The reactor clients run on — on the channel fabric the one every
    /// actor runs on; on tcp the client node's, `None` until the first
    /// client.
    pub fn reactor(&self) -> Option<&Arc<Reactor>> {
        self.nodes[0].reactor.get()
    }

    /// Every reactor the cluster has started.
    pub fn reactors(&self) -> impl Iterator<Item = &Arc<Reactor>> {
        self.nodes.iter().filter_map(|node| node.reactor.get())
    }

    /// `(flushes, bytes)` written by every tcp node so far (see
    /// [`TcpTransport::io_stats`]); zero on the channel fabric.
    pub fn io_stats(&self) -> (u64, u64) {
        let tcp = self.nodes.iter().filter_map(|node| match &node.fabric {
            Fabric::Tcp(t) => Some(t.io_stats()),
            Fabric::Channel(_) => None,
        });
        tcp.fold((0, 0), |(flushes, bytes), (f, b)| (flushes + f, bytes + b))
    }

    /// The node hosting `site`'s servers, if this process hosts it: the
    /// channel fabric's one node, or the site's tcp node.
    fn node_of(&self, site: SiteId) -> Option<&Node> {
        let site = site.0 as usize;
        self.nodes
            .iter()
            .find(|node| node.index.is_none_or(|i| i == site))
    }

    /// `node`'s reactor, started on first use and seeded `seed ^ index`.
    fn reactor_of<'a>(&self, node: &'a Node) -> &'a Arc<Reactor> {
        let seed = self.seed ^ node.index.unwrap_or(0) as u64;
        node.reactor
            .get_or_init(|| Reactor::new(self.clock, self.plane, seed))
    }

    /// Spawn a client actor at `site` as a task of its own, returning its
    /// id.
    pub fn spawn_client(&mut self, site: usize, actor: Box<dyn Actor<Msg>>) -> ActorId {
        let id = ActorId(self.next_client);
        self.next_client += 1;
        let site = SiteId(site as u8);
        let (tx, rx) = mailbox(self.plane.mailbox_capacity);
        let home = &self.nodes[0];
        home.fabric.host(id, site, tx.clone());
        let transport = home.transport.clone();
        let handle = self
            .reactor_of(home)
            .spawn(id, site, actor, tx, rx, transport);
        self.clients.push(handle);
        id
    }

    /// Spawn a *pool* of client actors at `site`, returning their ids in
    /// order. Load generators use this instead of
    /// [`spawn_client`](Self::spawn_client): the clients ride on one pool
    /// task per worker ([`Reactor::spawn_pool_per_worker`]), so a
    /// concurrency sweep measures the cluster rather than the scheduling of
    /// hundreds of tiny tasks. Pooled actors cannot be addressed through
    /// [`NodeHandle::call`] / `inject`.
    pub fn spawn_client_pool(
        &mut self,
        site: usize,
        actors: Vec<Box<dyn Actor<Msg>>>,
    ) -> Vec<ActorId> {
        let site = SiteId(site as u8);
        let first = self.next_client;
        self.next_client += actors.len() as u32;
        let members: PoolMembers = (first..).map(ActorId).zip(actors).collect();
        let ids = members.iter().map(|(id, _)| *id).collect();
        let home = &self.nodes[0];
        let pools = self.reactor_of(home).spawn_pool_per_worker(
            members,
            site,
            home.transport.clone(),
            |id, tx| home.fabric.host(id, site, tx),
        );
        self.pools.extend(pools);
        ids
    }

    /// The node handle of a spawned client (for [`NodeHandle::call`] /
    /// [`NodeHandle::inject`]).
    pub fn client(&self, id: ActorId) -> Option<&NodeHandle> {
        self.clients.iter().find(|h| h.id == id)
    }

    /// The node handle of a server node (replica or coordinator) by actor
    /// id, for [`NodeHandle::call`] — e.g. installing a compiled plan on a
    /// coordinator between two of its messages.
    pub fn server(&self, id: ActorId) -> Option<&NodeHandle> {
        self.servers.iter().find(|h| h.id == id)
    }

    /// Stop every task (clients first, then coordinators, then replicas),
    /// keeping their actors for [`shutdown`](Self::shutdown). The reactors
    /// and transports keep running, so their counters ([`Reactor::steals`],
    /// [`io_stats`](Self::io_stats)) are final once this returns.
    pub fn stop_tasks(&mut self) {
        for handle in self.clients.drain(..) {
            let id = handle.id.0;
            self.stopped.insert(id, handle.stop_and_join());
        }
        for pool in self.pools.drain(..) {
            // The pool's shared metrics registry rides on its first member;
            // the rest carry empty registries so merges count it once.
            let (members, metrics) = pool.stop_and_join();
            let mut metrics = Some(metrics);
            for (id, actor) in members {
                let metrics = metrics.take().unwrap_or_else(Metrics::new);
                self.stopped.insert(id.0, (actor, metrics));
            }
        }
        // Coordinators before replicas, so in-flight transactions stop
        // generating replica traffic first.
        for handle in self.servers.drain(..).rev() {
            let id = handle.id.0;
            self.stopped.insert(id, handle.stop_and_join());
        }
    }

    /// Stop every task ([`stop_tasks`](Self::stop_tasks)), the transports
    /// and the reactors, returning the harvested actors and metrics.
    pub fn shutdown(mut self) -> Harvest {
        self.stop_tasks();
        let (mut dropped, mut shed) = (0, 0);
        for node in &self.nodes {
            let (d, s) = node.fabric.stop();
            dropped += d;
            shed += s;
        }
        for reactor in self.nodes.iter().filter_map(|node| node.reactor.get()) {
            reactor.shutdown();
        }
        Harvest {
            actors: self.stopped,
            dropped,
            shed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planet_mdcc::{CoordinatorActor, Outcome, Protocol, ReplicaActor, TxnSpec};
    use planet_sim::{Context, SimTime};
    use planet_storage::{Key, WriteOp};
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    /// A closed-loop increment client of (coordinator, keys, outcome sink,
    /// last send time): one `add(1)` of a random key in flight, the next
    /// submitted when its `TxnDone` lands, each outcome sent to the sink
    /// with its latency in µs.
    struct Incrementer(ActorId, Vec<Key>, Sender<(Outcome, u64)>, SimTime);

    impl Actor<Msg> for Incrementer {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            self.3 = ctx.now();
            let key = self.1[ctx.rng().index(self.1.len())].clone();
            let (spec, reply_to) = (TxnSpec::write_one(key, WriteOp::add(1)), ctx.self_id());
            let submit = Msg::Submit {
                spec,
                reply_to,
                tag: 0,
            };
            ctx.send(self.0, submit);
        }

        fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if let Msg::TxnDone { outcome, .. } = msg {
                let _ = self.2.send((outcome, ctx.now().since(self.3).as_micros()));
                self.on_start(ctx);
            }
        }
    }

    /// The fabrics a cluster test runs on.
    const FABRICS: [&str; 2] = ["channel", "tcp"];

    /// A three-site fast-path cluster on `fabric`; on tcp every site is
    /// hosted, on a free loopback port.
    fn builder(fabric: &str) -> LiveClusterBuilder {
        let builder = LiveCluster::builder(ClusterConfig::new(3, Protocol::Fast));
        match fabric {
            "tcp" => builder.tcp(vec!["127.0.0.1:0".parse().expect("loopback"); 3], 0..3),
            _ => builder,
        }
    }

    /// Up to `want` completions, waiting at most `timeout` for all of them.
    fn drain_until(
        rx: &Receiver<(Outcome, u64)>,
        want: usize,
        timeout: Duration,
    ) -> Vec<(Outcome, u64)> {
        let deadline = Instant::now() + timeout;
        (0..want)
            .map_while(|_| {
                let left = deadline.saturating_duration_since(Instant::now());
                rx.recv_timeout(left).ok()
            })
            .collect()
    }

    /// Every latency-attribution span a cluster's servers record.
    const SPANS: [&str; 3] = ["span.queue_us", "span.quorum_wait_us", "span.wal_us"];

    /// Four pooled closed-loop clients per site drive `cluster` until 36
    /// transactions finished; every node's reactor must then run with
    /// `workers` workers, every transaction must commit (commutative
    /// increments under Fast Paxos never abort), nothing may shed, every
    /// client must be harvested under its own id, and the harvested
    /// metrics must carry every span in `spans`.
    fn pools_commit(mut cluster: LiveCluster, label: &str, workers: usize, spans: &[&str]) {
        let (tx, rx) = channel();
        let keys: Vec<Key> = (0..8).map(|i| Key::new(format!("k{i}"))).collect();
        let mut all_ids = Vec::new();
        for site in 0..3 {
            let coord = cluster.coordinator(site);
            let actors: Vec<Box<dyn Actor<Msg>>> = (0..4)
                .map(|_| Box::new(Incrementer(coord, keys.clone(), tx.clone(), SimTime::ZERO)) as _)
                .collect();
            all_ids.extend(cluster.spawn_client_pool(site, actors));
        }
        drop(tx);
        assert_eq!(all_ids.len(), 12, "{label}: pooled clients");
        let sizes: Vec<usize> = cluster.reactors().map(|r| r.workers()).collect();
        assert_eq!(
            sizes,
            vec![workers; cluster.nodes.len()],
            "{label}: reactors"
        );
        let records = drain_until(&rx, 36, Duration::from_secs(20));
        assert_eq!(records.len(), 36, "{label}: completions");
        assert!(records
            .iter()
            .all(|&(outcome, _)| outcome == Outcome::Committed));
        let harvest = cluster.shutdown();
        assert_eq!(harvest.shed, 0, "{label}: nothing should shed");
        assert!(all_ids
            .iter()
            .all(|&id| harvest.actor_as::<Incrementer>(id).is_some()));
        let mut merged = harvest.merged_metrics();
        for span in spans {
            assert!(merged.histogram(span).count() > 0, "{label}: {span} empty");
        }
    }

    #[test]
    fn pooled_clients_complete_transactions() {
        // A pool drives many closed-loop clients as a few tasks per site;
        // every member must make progress and be harvested under its own
        // id, on either fabric.
        for fabric in FABRICS {
            let cluster = builder(fabric).seed(9).build();
            pools_commit(cluster, fabric, default_workers(), &SPANS);
        }
    }

    #[test]
    fn reactor_runtime_commits_and_reports_spans() {
        // The runtime end-to-end: servers and client pools all run as
        // tasks on every reactor of the cluster. `workers: 0` is one more
        // input: it is not a magic value, `Reactor::new` clamps it to one
        // worker and the cluster commits all the same.
        for fabric in FABRICS {
            for (workers, expect_workers) in [(2, 2), (0, 1)] {
                let cluster = builder(fabric)
                    .plane(PlaneConfig::default().with_workers(workers))
                    .seed(13)
                    .build();
                let label = format!("{fabric}, workers={workers}");
                pools_commit(cluster, &label, expect_workers, &SPANS);
            }
        }
    }

    #[test]
    fn load_generator_commits_through_servers_of_another_cluster() {
        // The planetd / planet-load split inside one process: one cluster
        // hosts every site, a second hosts none and drives the first's
        // coordinators through its client node.
        let servers = builder("tcp").seed(21).build();
        let addrs: Vec<SocketAddr> = (0..3).filter_map(|site| servers.addr(site)).collect();
        let load = LiveCluster::builder(ClusterConfig::new(3, Protocol::Fast))
            .tcp(addrs, [])
            .seed(22)
            .build();
        assert!(load.reactor().is_none(), "no client, no client reactor");
        // The load cluster's harvest is its clients': the queueing span
        // only, the servers record the rest.
        let spans = ["span.queue_us"];
        pools_commit(load, "load", default_workers(), &spans);
        servers.shutdown();
    }

    #[test]
    fn a_client_commits_and_every_node_sends_through_its_wrap() {
        // On both fabrics a spawned client commits, the servers are
        // harvested under their layout ids, and a counting `wrap` sees every
        // node send — the tcp client node included.
        for fabric in FABRICS {
            let counts = Counts::default();
            let registry = counts.clone();
            let mut cluster = builder(fabric)
                .seed(7)
                .wrap(move |inner, node| {
                    let sent = Arc::new(AtomicU64::new(0));
                    registry.lock().expect("lock").insert(node, sent.clone());
                    Arc::new(Counting(inner, sent))
                })
                .build();
            let (tx, rx) = channel();
            let keys: Vec<Key> = (0..8).map(|i| Key::new(format!("k{i}"))).collect();
            let coord = cluster.coordinator(0);
            cluster.spawn_client(0, Box::new(Incrementer(coord, keys, tx, SimTime::ZERO)));
            let records = drain_until(&rx, 5, Duration::from_secs(10));
            assert_eq!(records.len(), 5, "{fabric}: completions");
            assert!(records
                .iter()
                .all(|&(outcome, _)| outcome == Outcome::Committed));
            let harvest = cluster.shutdown();
            assert!(harvest.actor_as::<ReplicaActor>(ActorId(0)).is_some());
            assert!(harvest.actor_as::<CoordinatorActor>(ActorId(3)).is_some());
            let counts = counts.lock().expect("lock");
            let nodes: Vec<Option<usize>> = counts.keys().copied().collect();
            let expect = match fabric {
                "tcp" => vec![Some(0), Some(1), Some(2), Some(3)],
                _ => vec![None],
            };
            assert_eq!(nodes, expect, "{fabric}: one wrap per node");
            assert!(
                counts.values().all(|sent| sent.load(Ordering::Relaxed) > 0),
                "{fabric}: a node sent nothing through its wrap: {counts:?}"
            );
        }
    }

    /// Envelopes sent per node.
    type Counts = Arc<Mutex<BTreeMap<Option<usize>, Arc<AtomicU64>>>>;

    /// A transport that counts what its node sends through it.
    struct Counting(Arc<dyn Transport>, Arc<AtomicU64>);

    impl Transport for Counting {
        fn send(&self, env: Envelope) {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.send(env);
        }
    }

    #[test]
    #[should_panic(expected = "a tcp cluster runs on real sockets")]
    fn network_model_and_tcp_are_refused_together() {
        let net = NetworkModel::from_rtt_ms(&[vec![0.1; 3], vec![0.1; 3], vec![0.1; 3]]);
        let _ = builder("tcp").network(net).try_build();
    }

    #[test]
    fn network_model_shapes_live_latency() {
        // With a symmetric 20ms-RTT model, a fast-path commit needs the
        // proposal fan-out and votes to cross sites, so end-to-end latency
        // must sit well above the intra-site-only floor.
        let config = ClusterConfig::new(3, Protocol::Fast);
        let rtt = vec![
            vec![0.1, 20.0, 20.0],
            vec![20.0, 0.1, 20.0],
            vec![20.0, 20.0, 0.1],
        ];
        let net = NetworkModel::from_rtt_ms(&rtt);
        let mut cluster = LiveCluster::builder(config).network(net).seed(11).build();
        let (tx, rx) = channel();
        let coord = cluster.coordinator(0);
        let hot = vec![Key::new("hot")];
        cluster.spawn_client(0, Box::new(Incrementer(coord, hot, tx, SimTime::ZERO)));
        let records = drain_until(&rx, 3, Duration::from_secs(10));
        assert!(
            records.len() >= 3,
            "expected 3 completions, got {}",
            records.len()
        );
        for &(_, latency_us) in &records {
            assert!(
                latency_us >= 10_000,
                "one-way delay is 10ms, commit took only {latency_us}us"
            );
        }
        cluster.shutdown();
    }
}
