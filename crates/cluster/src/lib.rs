//! # planet-cluster
//!
//! The live deployment mode: every MDCC replica, coordinator and client
//! runs as a task on the [`Reactor`]'s worker threads, exchanging the exact
//! protocol messages of `planet-mdcc` through a pluggable [`Transport`]:
//!
//! * [`ChannelTransport`] — in-process mailboxes behind a delay-injecting
//!   fabric thread that applies the *same* [`NetworkModel`] the
//!   deterministic simulator uses (jitter, loss, spikes, partitions), with
//!   wall-clock time since cluster start standing in for simulated time.
//! * [`TcpTransport`] — `std::net` sockets with a length-prefixed binary
//!   wire format ([`wire`]), for multi-process deployments: the `planetd`
//!   server binary and the `planet-load` driver.
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
pub mod load;
pub mod node;
pub mod plane;
pub mod reactor;
mod sync;
pub mod tcp;
pub mod transport;
pub mod wheel;
pub mod wire;

pub use channel::ChannelTransport;
pub use load::{LoadClient, LoadRecord, PlanSource, SpecSource};
pub use node::{CallFn, Clock, NodeHandle, Packet, PoolHandle, PoolMembers};
pub use plane::{
    default_workers, mailbox, MailboxReceiver, MailboxSender, PlaneConfig, TrySendError, Waker,
};
pub use reactor::Reactor;
pub use tcp::TcpTransport;
pub use transport::{Envelope, Transport};

use std::collections::HashMap;
use std::sync::Arc;

use planet_mdcc::{ClusterConfig, CoordinatorActor, Msg, ReplicaActor};
use planet_sim::{Actor, ActorId, Metrics, NetworkModel, SiteId};

/// Builder for a [`LiveCluster`].
pub struct LiveClusterBuilder {
    config: ClusterConfig,
    net: Option<NetworkModel>,
    seed: u64,
    plane: PlaneConfig,
}

impl LiveClusterBuilder {
    /// Start from a cluster configuration.
    pub fn new(config: ClusterConfig) -> Self {
        LiveClusterBuilder {
            config,
            net: None,
            seed: 42,
            plane: PlaneConfig::default(),
        }
    }

    /// Tune the message plane (drain batch size, mailbox capacity, fabric
    /// shard count). Defaults to [`PlaneConfig::default`].
    pub fn plane(mut self, plane: PlaneConfig) -> Self {
        self.plane = plane;
        self
    }

    /// Shape deliveries with a network model (default: instant delivery).
    /// The model must cover at least `config.num_sites` sites.
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

    /// Spawn the server nodes: `num_shards` replicas and one coordinator
    /// per site, with the same dense shard-major actor-id layout the
    /// simulated cluster uses (replica `(site, shard)` at `shard*n + site`,
    /// coordinators at `shards*n .. shards*n + n`), every node a task on
    /// one [`Reactor`] of `plane.workers` workers.
    pub fn build(self) -> LiveCluster {
        let clock = Clock::new();
        let reactor = Reactor::new(clock, self.plane, self.seed);
        let transport = match self.net {
            Some(net) => ChannelTransport::with_network(
                clock,
                net,
                self.seed,
                self.plane.fabric_shards,
                self.plane.fabric_slack_us,
            ),
            None => ChannelTransport::direct(clock),
        };
        let n = self.config.num_sites;
        let shards = self.config.num_shards.max(1);
        let replica_ids: Vec<ActorId> = (0..shards * n).map(|i| ActorId(i as u32)).collect();

        // Build every actor and mailbox first, register them all with the
        // transport, and only then spawn tasks: an actor's on_start may
        // send to peers that would otherwise not be routable yet.
        let mut pending = Vec::new();
        for shard in 0..shards {
            let peers: Vec<ActorId> = replica_ids[shard * n..(shard + 1) * n].to_vec();
            for site in 0..n {
                let actor: Box<dyn Actor<Msg>> =
                    Box::new(ReplicaActor::new(self.config.clone(), peers.clone(), shard));
                pending.push((
                    ActorId((shard * n + site) as u32),
                    SiteId(site as u8),
                    actor,
                ));
            }
        }
        for site in 0..n {
            let actor: Box<dyn Actor<Msg>> = Box::new(CoordinatorActor::new(
                self.config.clone(),
                replica_ids.clone(),
                SiteId(site as u8),
            ));
            pending.push((
                ActorId((shards * n + site) as u32),
                SiteId(site as u8),
                actor,
            ));
        }
        let mut channels = Vec::new();
        for (id, site, actor) in pending {
            let (tx, rx) = mailbox(self.plane.mailbox_capacity);
            transport.register(id.0, site, tx.clone());
            channels.push((id, site, actor, tx, rx));
        }
        let nodes = channels
            .into_iter()
            .map(|(id, site, actor, tx, rx)| {
                reactor.spawn(
                    id,
                    site,
                    actor,
                    tx,
                    rx,
                    transport.clone() as Arc<dyn Transport>,
                )
            })
            .collect();
        LiveCluster {
            transport,
            clock,
            config: self.config,
            nodes,
            clients: Vec::new(),
            pools: Vec::new(),
            next_client: ((shards + 1) * n) as u32,
            plane: self.plane,
            reactor,
        }
    }
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

/// A live MDCC cluster on the in-process transport — the deployment-mode
/// counterpart of the simulated cluster built by
/// `planet_mdcc::build_cluster`. Actors run as tasks on one [`Reactor`].
pub struct LiveCluster {
    transport: Arc<ChannelTransport>,
    clock: Clock,
    config: ClusterConfig,
    /// Server nodes: replicas `0..shards*n` shard-major, then coordinators
    /// `shards*n .. shards*n + n`.
    nodes: Vec<NodeHandle>,
    /// Client nodes, spawned on demand.
    clients: Vec<NodeHandle>,
    /// Pooled client groups (many actors per task), spawned on demand.
    pools: Vec<PoolHandle>,
    next_client: u32,
    plane: PlaneConfig,
    /// The runtime every node, client and pool of this cluster is a task on.
    reactor: Arc<Reactor>,
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
        ActorId((shard * self.config.num_sites + site) as u32)
    }

    /// The coordinator actor id at `site`.
    pub fn coordinator(&self, site: usize) -> ActorId {
        let shards = self.config.num_shards.max(1);
        ActorId((shards * self.config.num_sites + site) as u32)
    }

    /// The transport (drop counters, direct sends from harness code).
    pub fn transport(&self) -> &Arc<ChannelTransport> {
        &self.transport
    }

    /// The reactor hosting this cluster's actors. Always `Some`: the
    /// `Option` is what `perf/` compiles against, and tightening the
    /// signature belongs to a change of the benchmark.
    pub fn reactor(&self) -> Option<&Arc<Reactor>> {
        Some(&self.reactor)
    }

    /// Spawn a client actor at `site` as a task of its own, returning its
    /// id.
    pub fn spawn_client(&mut self, site: usize, actor: Box<dyn Actor<Msg>>) -> ActorId {
        let id = ActorId(self.next_client);
        self.next_client += 1;
        let (tx, rx) = mailbox(self.plane.mailbox_capacity);
        self.transport
            .register(id.0, SiteId(site as u8), tx.clone());
        let transport = self.transport.clone() as Arc<dyn Transport>;
        let handle = self
            .reactor
            .spawn(id, SiteId(site as u8), actor, tx, rx, transport);
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
        let transport = &self.transport;
        self.pools.extend(self.reactor.spawn_pool_per_worker(
            members,
            site,
            transport.clone() as Arc<dyn Transport>,
            |id, tx| transport.register(id.0, site, tx),
        ));
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
        self.nodes.iter().find(|h| h.id == id)
    }

    /// Stop every node (clients first, then coordinators, then replicas)
    /// and the fabric, returning the harvested actors and metrics.
    pub fn shutdown(self) -> Harvest {
        let mut actors = HashMap::new();
        for handle in self.clients {
            let id = handle.id.0;
            let harvested = handle.stop_and_join();
            actors.insert(id, harvested);
        }
        for pool in self.pools {
            // The pool's shared metrics registry rides on its first member;
            // the rest carry empty registries so merges count it once.
            let (members, metrics) = pool.stop_and_join();
            let mut metrics = Some(metrics);
            for (id, actor) in members {
                actors.insert(id.0, (actor, metrics.take().unwrap_or_else(Metrics::new)));
            }
        }
        // Coordinators before replicas, so in-flight transactions stop
        // generating replica traffic first.
        for handle in self.nodes.into_iter().rev() {
            let id = handle.id.0;
            let harvested = handle.stop_and_join();
            actors.insert(id, harvested);
        }
        self.transport.stop();
        self.reactor.shutdown();
        Harvest {
            actors,
            dropped: self.transport.dropped(),
            shed: self.transport.shed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planet_mdcc::{Outcome, Protocol};
    use planet_storage::Key;
    use std::sync::mpsc::channel;
    use std::time::{Duration, Instant};

    fn drain_until(
        rx: &std::sync::mpsc::Receiver<LoadRecord>,
        want: usize,
        timeout: Duration,
    ) -> Vec<LoadRecord> {
        let deadline = Instant::now() + timeout;
        let mut got = Vec::new();
        while got.len() < want && Instant::now() < deadline {
            if let Ok(rec) = rx.recv_timeout(Duration::from_millis(100)) {
                got.push(rec);
            }
        }
        got
    }

    #[test]
    fn live_cluster_commits_on_channel_transport() {
        let config = ClusterConfig::new(3, Protocol::Fast);
        let mut cluster = LiveCluster::builder(config).seed(7).build();
        let (tx, rx) = channel();
        let keys: Vec<Key> = (0..8).map(|i| Key::new(format!("k{i}"))).collect();
        let coord = cluster.coordinator(0);
        cluster.spawn_client(0, Box::new(LoadClient::new(coord, keys, tx)));
        let records = drain_until(&rx, 5, Duration::from_secs(10));
        assert!(
            records.len() >= 5,
            "expected 5 completions, got {}",
            records.len()
        );
        assert!(
            records.iter().any(|r| r.outcome == Outcome::Committed),
            "at least one commit expected"
        );
        let harvest = cluster.shutdown();
        // One replica + one coordinator per site were harvested.
        assert!(harvest.actor_as::<ReplicaActor>(ActorId(0)).is_some());
        assert!(harvest.actor_as::<CoordinatorActor>(ActorId(3)).is_some());
    }

    #[test]
    fn pooled_clients_complete_transactions() {
        // A pool drives many closed-loop clients as a few tasks per site;
        // every member must make progress and be harvested under its own
        // id, with the pool's shared metrics counted exactly once.
        let config = ClusterConfig::new(3, Protocol::Fast);
        let mut cluster = LiveCluster::builder(config).seed(9).build();
        let (tx, rx) = channel();
        let keys: Vec<Key> = (0..8).map(|i| Key::new(format!("k{i}"))).collect();
        let mut all_ids = Vec::new();
        for site in 0..3 {
            let coord = cluster.coordinator(site);
            let actors: Vec<Box<dyn Actor<Msg>>> = (0..4)
                .map(|_| {
                    Box::new(LoadClient::new(coord, keys.clone(), tx.clone()))
                        as Box<dyn Actor<Msg>>
                })
                .collect();
            all_ids.extend(cluster.spawn_client_pool(site, actors));
        }
        drop(tx);
        assert_eq!(all_ids.len(), 12);
        let records = drain_until(&rx, 36, Duration::from_secs(20));
        assert!(
            records.len() >= 36,
            "expected 36 completions from 12 pooled clients, got {}",
            records.len()
        );
        assert!(records.iter().any(|r| r.outcome == Outcome::Committed));
        let harvest = cluster.shutdown();
        for id in all_ids {
            assert!(
                harvest.actor_as::<LoadClient>(id).is_some(),
                "pooled client {id:?} missing from harvest"
            );
        }
    }

    #[test]
    fn reactor_runtime_commits_and_reports_spans() {
        // The runtime end-to-end: servers and a client pool all run as
        // tasks, every transaction commits (commutative increments under
        // Fast Paxos never abort), and the harvested metrics carry all four
        // latency-attribution spans. `workers: 0` is one more input: it is
        // not a magic value any more, `Reactor::new` clamps it to one
        // worker and the cluster commits all the same.
        for (workers, expect_workers) in [(2, 2), (0, 1)] {
            let config = ClusterConfig::new(3, Protocol::Fast);
            let mut cluster = LiveCluster::builder(config)
                .plane(PlaneConfig::default().with_workers(workers))
                .seed(13)
                .build();
            assert_eq!(cluster.reactor().map(|r| r.workers()), Some(expect_workers));
            let (tx, rx) = channel();
            let keys: Vec<Key> = (0..8).map(|i| Key::new(format!("k{i}"))).collect();
            let mut all_ids = Vec::new();
            for site in 0..3 {
                let coord = cluster.coordinator(site);
                let actors: Vec<Box<dyn Actor<Msg>>> = (0..4)
                    .map(|_| {
                        Box::new(LoadClient::new(coord, keys.clone(), tx.clone()))
                            as Box<dyn Actor<Msg>>
                    })
                    .collect();
                all_ids.extend(cluster.spawn_client_pool(site, actors));
            }
            drop(tx);
            assert_eq!(all_ids.len(), 12);
            let records = drain_until(&rx, 36, Duration::from_secs(20));
            assert!(
                records.len() >= 36,
                "workers={workers}: expected 36 completions from 12 clients, got {}",
                records.len()
            );
            for rec in &records {
                assert_eq!(rec.outcome, Outcome::Committed, "workers={workers}");
            }
            let harvest = cluster.shutdown();
            assert_eq!(harvest.shed, 0, "workers={workers}: nothing should shed");
            for id in &all_ids {
                assert!(
                    harvest.actor_as::<LoadClient>(*id).is_some(),
                    "workers={workers}: client {id:?} missing from harvest"
                );
            }
            let mut merged = harvest.merged_metrics();
            for span in [
                "span.queue_us",
                "span.quorum_wait_us",
                "span.wal_us",
                "span.network_us",
            ] {
                assert!(
                    merged.histogram(span).count() > 0,
                    "workers={workers}: span histogram {span} is empty"
                );
            }
        }
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
        cluster.spawn_client(
            0,
            Box::new(LoadClient::new(coord, vec![Key::new("hot")], tx)),
        );
        let records = drain_until(&rx, 3, Duration::from_secs(10));
        assert!(
            records.len() >= 3,
            "expected 3 completions, got {}",
            records.len()
        );
        for rec in &records {
            assert!(
                rec.latency_us() >= 10_000,
                "one-way delay is 10ms, commit took only {}us",
                rec.latency_us()
            );
        }
        cluster.shutdown();
    }
}
