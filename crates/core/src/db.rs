//! The top-level handle: a geo-replicated PLANET database in a box.
//!
//! [`Planet`] wires the whole stack — network model, storage replicas,
//! commit protocol, per-site clients with prediction and admission — into
//! one deployment and exposes a compact API. [`PlanetBuilder::build`] runs
//! it in a deterministic simulation:
//!
//! ```
//! use planet_core::{Planet, PlanetTxn};
//! use planet_mdcc::Protocol;
//! use planet_sim::{SimDuration, SimTime};
//!
//! let mut db = Planet::builder().protocol(Protocol::Fast).seed(7).build();
//! let txn = PlanetTxn::builder().set("greeting", 1i64).build();
//! let handle = db.submit_at(0, SimTime::from_millis(1), txn);
//! db.run_for(SimDuration::from_secs(5));
//! assert!(db.record(handle).unwrap().outcome.is_commit());
//! ```
//!
//! [`PlanetBuilder::live`] deploys the very same actors on a
//! [`planet_cluster::LiveCluster`] instead — the channel fabric or tcp,
//! every site in this process — where each replica, coordinator and client
//! runs as a task on the reactor and the wall clock drives time. Live runs
//! are not replayable; the simulation remains the ground truth for
//! experiments.
//!
//! ```no_run
//! use planet_core::{LiveFabric, Planet, PlanetTxn, PlaneConfig, SimDuration};
//!
//! let mut db = Planet::builder().live(LiveFabric::Channel(PlaneConfig::default()));
//! let handle = db.submit(0, PlanetTxn::builder().set("k", 1i64).build());
//! let record = db.wait(handle, SimDuration::from_secs(10)).expect("finished");
//! assert!(record.outcome.is_commit());
//! assert_eq!(db.shutdown().records(0).len(), 1);
//! ```
//!
//! Everything both deployments share — submission, chaining, programs,
//! admission statistics, waiting — is written once over [`Fabric`]; what
//! only one of them has stays on its own type: virtual-time driving and
//! fault injection on `Planet<Sim>`, the event stream on `Planet<Live>`.

use std::net::SocketAddr;
use std::sync::mpsc::{channel, Receiver};
use std::time::Instant;

use planet_cluster::{Harvest, LiveCluster, PlaneConfig};
use planet_mdcc::{build_cluster, ClusterConfig, CoordinatorActor, Msg, Protocol};
use planet_plan::{PlanError, PlanId, PlanParam, TxnProgram};
use planet_sim::{Actor, ActorId, Metrics, NetworkModel, SimDuration, SimTime, Simulation, SiteId};
use planet_storage::{Key, Value};

use crate::admission::AdmissionPolicy;
use crate::client::{ClientActor, TxnRecord, TxnSource, TIMER_ARRIVAL, TIMER_CANCEL, TIMER_SUBMIT};
use crate::txn::{ChainTrigger, PlanetTxn, TxnEvent, TxnHandle};

/// The deterministic simulation a [`Planet`] runs in by default.
pub type Sim = Simulation<Msg>;

/// Builder for [`Planet`]: [`build`](Self::build) simulates the
/// deployment, [`live`](Self::live) runs it.
pub struct PlanetBuilder {
    topology: NetworkModel,
    protocol: Protocol,
    seed: u64,
    admission: Option<AdmissionPolicy>,
    txn_timeout: SimDuration,
    validation_service: SimDuration,
    fast_fallback: bool,
    shards: usize,
}

impl Default for PlanetBuilder {
    fn default() -> Self {
        PlanetBuilder {
            topology: planet_sim::topology::five_dc(),
            protocol: Protocol::Fast,
            seed: 42,
            admission: None,
            txn_timeout: SimDuration::from_secs(10),
            validation_service: SimDuration::ZERO,
            fast_fallback: false,
            shards: 1,
        }
    }
}

impl PlanetBuilder {
    /// Use a custom network model (default: the five-data-center WAN). On
    /// the live channel fabric its delays, loss, spikes and partitions
    /// apply with wall-clock time standing in for simulated time; on tcp
    /// only its site count is used.
    pub fn topology(mut self, net: NetworkModel) -> Self {
        self.topology = net;
        self
    }

    /// Choose the commit protocol (default: MDCC fast path).
    pub fn protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Seed the deterministic simulation, or a live cluster's fabric and
    /// node RNGs (default: 42).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable likelihood-based admission control.
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Server-side transaction timeout (default 10 s).
    pub fn txn_timeout(mut self, timeout: SimDuration) -> Self {
        self.txn_timeout = timeout;
        self
    }

    /// Enable the fast path's collision fallback: keys whose fast round
    /// splits without a winner are retried once through their master
    /// (MDCC's classic-path fallback). Only meaningful with
    /// [`Protocol::Fast`].
    pub fn fast_fallback(mut self, enabled: bool) -> Self {
        self.fast_fallback = enabled;
        self
    }

    /// Model finite replica capacity: each option validation occupies a
    /// replica's (single) validation server for this long, with FIFO
    /// queueing behind it. Default: zero (infinite capacity).
    pub fn validation_service(mut self, service: SimDuration) -> Self {
        self.validation_service = service;
        self
    }

    /// Partition each site's keyspace across this many replica shards
    /// (default 1). The simulation runs the sharded actors on its single
    /// deterministic thread; a live cluster runs each shard as a task.
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1);
        self.shards = shards;
        self
    }

    /// Assemble the database in a deterministic simulation.
    pub fn build(self) -> Planet {
        let config = self.config();
        let mut sim = Simulation::new(self.topology, self.seed);
        build_cluster(&mut sim, config.clone());
        let clients = (0..config.num_sites)
            .map(|site| {
                let client = new_client(&config, site, self.admission);
                sim.add_actor(SiteId(site as u8), Box::new(client))
            })
            .collect();
        Planet {
            fabric: sim,
            clients,
            config,
        }
    }

    /// Spawn the database on a live cluster: replica, coordinator and
    /// client tasks for every site of the topology, all in this process, on
    /// `fabric`.
    ///
    /// # Panics
    /// On tcp, unless there is one address per site, or if one cannot be
    /// bound.
    pub fn live(self, fabric: LiveFabric) -> Planet<Live> {
        let config = self.config();
        let cluster = LiveCluster::builder(config.clone()).seed(self.seed);
        let mut cluster = match fabric {
            LiveFabric::Channel(plane) => cluster.network(self.topology).plane(plane),
            LiveFabric::Tcp(addrs) => cluster.tcp(addrs, 0..config.num_sites),
        }
        .build();
        let (events, rx) = channel();
        let clients = (0..config.num_sites)
            .map(|site| {
                let mut client = new_client(&config, site, self.admission);
                client.stream_events(events.clone());
                cluster.spawn_client(site, Box::new(client))
            })
            .collect();
        Planet {
            fabric: Live {
                cluster,
                events: rx,
                started: Instant::now(),
            },
            clients,
            config,
        }
    }

    fn config(&self) -> ClusterConfig {
        let mut config =
            ClusterConfig::new(self.topology.num_sites(), self.protocol).with_shards(self.shards);
        config.txn_timeout = self.txn_timeout;
        config.validation_service = self.validation_service;
        config.fast_fallback = self.fast_fallback;
        config
    }
}

/// `site`'s client, submitting to the site's coordinator.
fn new_client(
    config: &ClusterConfig,
    site: usize,
    admission: Option<AdmissionPolicy>,
) -> ClientActor {
    let coordinator = config.coordinator_id(site);
    ClientActor::new(config.clone(), coordinator, site as u8, admission)
}

/// Where [`PlanetBuilder::live`] deploys. Every site is hosted in this
/// process.
pub enum LiveFabric {
    /// The in-process channel fabric, tuned by a [`PlaneConfig`]. The
    /// topology shapes its deliveries.
    Channel(PlaneConfig),
    /// Loopback or LAN tcp: site `s` listens on `addrs[s]` (port 0 picks a
    /// free port), one address per site of the topology. The sockets are
    /// the network: the topology's delays are not applied.
    Tcp(Vec<SocketAddr>),
}

/// A live deployment's fabric: the cluster, the stream of its
/// transactions' events, and when it started.
pub struct Live {
    cluster: LiveCluster,
    events: Receiver<TxnEvent>,
    started: Instant,
}

/// What a [`Planet`] runs on: the simulation ([`Sim`]) or a live cluster
/// ([`Live`]). The front end reaches an actor one way — run a closure on
/// it, then deliver the message the closure returns — reads the clock and
/// lets time pass; every method both deployments share is written once on
/// top.
pub trait Fabric {
    /// Run `f` on the actor `id` (a client or a coordinator), then deliver
    /// the message it returns to that actor: `delay` after now on the
    /// simulation's clock, at once on a live fabric.
    fn call<A: Actor<Msg>, R: Send + 'static>(
        &mut self,
        id: ActorId,
        delay: SimDuration,
        f: impl FnOnce(&mut A) -> (R, Option<Msg>) + Send + 'static,
    ) -> R;

    /// Let `span` pass: simulated time in the simulation, wall-clock time
    /// on a live fabric.
    fn pass(&mut self, span: SimDuration);

    /// The time now: simulated time in the simulation, the wall-clock time
    /// since the deployment started on a live fabric.
    fn clock(&self) -> SimTime;
}

impl Fabric for Sim {
    fn call<A: Actor<Msg>, R: Send + 'static>(
        &mut self,
        id: ActorId,
        delay: SimDuration,
        f: impl FnOnce(&mut A) -> (R, Option<Msg>) + Send + 'static,
    ) -> R {
        let (result, msg) = f(self
            .actor_as_mut::<A>(id)
            .expect("actor of the called type"));
        if let Some(msg) = msg {
            let at = self.now() + delay;
            self.inject_at(at, id, msg);
        }
        result
    }

    fn pass(&mut self, span: SimDuration) {
        self.run_for(span);
    }

    fn clock(&self) -> SimTime {
        self.now()
    }
}

impl Fabric for Live {
    fn call<A: Actor<Msg>, R: Send + 'static>(
        &mut self,
        id: ActorId,
        _delay: SimDuration,
        f: impl FnOnce(&mut A) -> (R, Option<Msg>) + Send + 'static,
    ) -> R {
        let node = self.cluster.client(id).or_else(|| self.cluster.server(id));
        let (reply_tx, reply_rx) = channel();
        node.expect("a node runs the actor").call(move |actor| {
            let actor: &mut dyn std::any::Any = actor;
            let (result, msg) = f(actor.downcast_mut().expect("actor of the called type"));
            let _ = reply_tx.send(result);
            msg.into_iter().collect()
        });
        reply_rx.recv().expect("the actor's node is gone")
    }

    fn pass(&mut self, span: SimDuration) {
        std::thread::sleep(span.to_std());
    }

    fn clock(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_std(self.started.elapsed())
    }
}

/// Where a deployment's client actors can be borrowed: the simulation, or
/// the [`Harvest`] of a stopped live deployment.
pub trait Clients {
    /// The client actor `id`.
    fn client(&self, id: ActorId) -> &ClientActor;
}

impl Clients for Sim {
    fn client(&self, id: ActorId) -> &ClientActor {
        self.actor_as(id).expect("client actor")
    }
}

impl Clients for Harvest {
    fn client(&self, id: ActorId) -> &ClientActor {
        self.actor_as(id).expect("client actor harvested")
    }
}

/// A complete PLANET deployment: replicas, coordinators and clients at every
/// site of the topology, on the fabric `F` — a deterministic simulation by
/// default, or a live cluster ([`Live`]), which
/// [`shutdown`](Planet::shutdown) turns into a `Planet<Harvest>`.
pub struct Planet<F = Sim> {
    fabric: F,
    clients: Vec<ActorId>,
    config: ClusterConfig,
}

impl Planet {
    /// Start building a deployment.
    pub fn builder() -> PlanetBuilder {
        PlanetBuilder::default()
    }
}

impl<F: Fabric> Planet<F> {
    /// Number of sites (data centers).
    pub fn num_sites(&self) -> usize {
        self.clients.len()
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Submit a transaction at `site` now. On a live fabric, returns once
    /// the site's client has staged it.
    pub fn submit(&mut self, site: usize, txn: PlanetTxn) -> TxnHandle {
        self.submit_in(site, SimDuration::ZERO, txn)
    }

    /// Install a compiled transaction program under `plan` on every
    /// coordinator and client. Subsequent submissions built with
    /// [`TxnBuilder::via_plan`](crate::TxnBuilder::via_plan) (or
    /// [`Planet::submit_plan`]) execute the pre-routed plan: no key strings
    /// cross the submission boundary and the coordinator skips routing and
    /// dispatch work per transaction.
    pub fn install_program(&mut self, plan: PlanId, program: TxnProgram) -> Result<(), PlanError> {
        program.validate()?;
        for site in 0..self.num_sites() {
            let prog = program.clone();
            let coordinator = self.config.coordinator_id(site);
            self.fabric.call(
                coordinator,
                SimDuration::ZERO,
                move |c: &mut CoordinatorActor| (c.install_plan(plan, prog), None),
            )?;
            let prog = program.clone();
            self.on_client(site, move |client| client.install_program(plan, prog));
        }
        Ok(())
    }

    /// Submit one execution of an installed program at `site` now — the
    /// plan-handle twin of [`Planet::submit`].
    pub fn submit_plan(&mut self, site: usize, plan: PlanId, params: Vec<PlanParam>) -> TxnHandle {
        self.submit(site, PlanetTxn::builder().via_plan(plan, params).build())
    }

    /// Chain a transaction behind another at the same site: it is submitted
    /// automatically the moment `after` reaches `trigger`
    /// ([`ChainTrigger::Speculative`] launches it as soon as the predecessor
    /// is *likely* committed — the paper's speculative-workflow use case)
    /// and cancelled (outcome [`FinalOutcome::Cancelled`]) if the
    /// predecessor fails. If the predecessor already finished, the successor
    /// is submitted or cancelled immediately. The predecessor's state is
    /// read on its client, so there is no race with an in-flight outcome.
    ///
    /// [`FinalOutcome::Cancelled`]: crate::FinalOutcome::Cancelled
    pub fn submit_after(
        &mut self,
        after: TxnHandle,
        trigger: ChainTrigger,
        txn: PlanetTxn,
    ) -> TxnHandle {
        let client = self.clients[after.site as usize];
        let soon = SimDuration::from_micros(1);
        self.fabric
            .call(client, soon, move |client: &mut ClientActor| {
                let kind = match client.record(after).map(|r| r.outcome.is_commit()) {
                    Some(true) => TIMER_SUBMIT,
                    Some(false) => TIMER_CANCEL,
                    None => return (client.stage_chained(txn, after.tag, trigger), None),
                };
                let handle = client.stage(txn);
                (
                    handle,
                    Some(Msg::ClientTimer {
                        kind,
                        tag: handle.tag,
                    }),
                )
            })
    }

    /// Admission statistics `(admitted, refused)` for one site.
    pub fn admission_stats(&mut self, site: usize) -> (u64, u64) {
        self.on_client(site, |client| client.admission_stats())
    }

    /// Wait up to `within` — simulated time in the simulation, wall-clock
    /// time on a live fabric — for `handle` to finish, and return a copy of
    /// its record; `None` if it is still running.
    pub fn wait(&mut self, handle: TxnHandle, within: SimDuration) -> Option<TxnRecord> {
        let deadline = self.fabric.clock() + within;
        loop {
            let record = self.on_client(handle.site as usize, move |client| {
                client.record(handle).cloned()
            });
            if record.is_some() || self.fabric.clock() >= deadline {
                return record;
            }
            self.fabric.pass(SimDuration::from_millis(1));
        }
    }

    /// Stage `txn` at `site` and submit it `delay` from now.
    fn submit_in(&mut self, site: usize, delay: SimDuration, txn: PlanetTxn) -> TxnHandle {
        self.fabric
            .call(self.clients[site], delay, |client: &mut ClientActor| {
                let handle = client.stage(txn);
                let submit = Msg::ClientTimer {
                    kind: TIMER_SUBMIT,
                    tag: handle.tag,
                };
                (handle, Some(submit))
            })
    }

    /// Run `f` on `site`'s client.
    fn on_client<R: Send + 'static>(
        &mut self,
        site: usize,
        f: impl FnOnce(&mut ClientActor) -> R + Send + 'static,
    ) -> R {
        let client = self.clients[site];
        self.fabric
            .call(client, SimDuration::ZERO, |client| (f(client), None))
    }
}

impl<F: Clients> Planet<F> {
    /// Finished-transaction records at one site.
    pub fn records(&self, site: usize) -> &[TxnRecord] {
        self.client(site).records()
    }

    /// The record for a handle, if the transaction finished.
    pub fn record(&self, handle: TxnHandle) -> Option<&TxnRecord> {
        self.client(handle.site as usize).record(handle)
    }

    /// All finished-transaction records across sites.
    pub fn all_records(&self) -> Vec<&TxnRecord> {
        (0..self.clients.len())
            .flat_map(|s| self.records(s).iter())
            .collect()
    }

    fn client(&self, site: usize) -> &ClientActor {
        self.fabric.client(self.clients[site])
    }
}

impl Planet<Sim> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.fabric.now()
    }

    /// Submit a transaction at `site`, to be issued at absolute time `at`
    /// (which must not be in the past).
    pub fn submit_at(&mut self, site: usize, at: SimTime, txn: PlanetTxn) -> TxnHandle {
        assert!(at >= self.now(), "cannot submit into the past");
        self.submit_in(site, at.since(self.now()), txn)
    }

    /// Attach a workload source to a site's client. Arrivals begin
    /// immediately (whether or not the simulation has already run).
    pub fn attach_source(&mut self, site: usize, source: Box<dyn TxnSource>) {
        // Kick the arrival chain; a duplicate kick (e.g. the client's own
        // on_start) is ignored by the arming guard.
        let arrival = Msg::ClientTimer {
            kind: TIMER_ARRIVAL,
            tag: 0,
        };
        let soon = SimDuration::from_micros(1);
        self.fabric
            .call(self.clients[site], soon, |client: &mut ClientActor| {
                client.attach_source(source);
                ((), Some(arrival))
            })
    }

    /// Advance the simulation by `span`.
    pub fn run_for(&mut self, span: SimDuration) -> SimTime {
        self.fabric.run_for(span)
    }

    /// Advance the simulation to absolute time `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.fabric.run_until(deadline)
    }

    /// The likelihood model of one site's client (diagnostics, experiments).
    pub fn model(&self, site: usize) -> &planet_predict::LikelihoodModel {
        self.client(site).model()
    }

    /// Mutable access to a site's likelihood model (diagnostics: quantile
    /// queries need `&mut` because the ECDF sorts lazily).
    pub fn model_mut(&mut self, site: usize) -> &mut planet_predict::LikelihoodModel {
        self.fabric
            .actor_as_mut::<ClientActor>(self.clients[site])
            .expect("client actor")
            .model_mut()
    }

    /// Ask the site's model: *what deadline would give this transaction at
    /// least `confidence` probability of committing in time?* (the paper's
    /// deadline-planning question). Returns `None` if no deadline ≤ 30 s
    /// reaches the confidence — e.g. a write to a key with a hopeless
    /// conflict history. The estimate is a-priori (pre-read): it uses each
    /// key's learned acceptance and the site's path-latency distributions.
    pub fn suggest_deadline(
        &mut self,
        site: usize,
        txn: &PlanetTxn,
        confidence: f64,
    ) -> Option<SimDuration> {
        use planet_predict::conflict::KeyedConflictModel;
        use planet_predict::{KeyState, TxnSnapshot};
        let config = self.config.clone();
        let keys: Vec<KeyState> = txn
            .spec
            .writes
            .iter()
            .map(|(key, _)| {
                let (quorum, voters, outstanding) = match config.protocol {
                    Protocol::TwoPc => (1, 1, std::iter::once(config.master_of(key).0).collect()),
                    _ => (
                        config.required_quorum(),
                        config.num_sites,
                        (0..config.num_sites as u8).collect(),
                    ),
                };
                KeyState {
                    accepts: 0,
                    rejects: 0,
                    outstanding,
                    pending_at_read: 0,
                    key_hash: KeyedConflictModel::key_hash(key.as_str()),
                    quorum,
                    voters,
                }
            })
            .collect();
        let snap = TxnSnapshot {
            keys,
            elapsed_us: 0,
        };
        self.model_mut(site)
            .suggest_budget_us(&snap, confidence, 30_000_000)
            .map(SimDuration::from_micros)
    }

    /// Read the committed value of a key at a site's local replica —
    /// a diagnostic read outside any transaction. Routed to the key's
    /// shard, like every other key-carrying access.
    pub fn read_local(&self, site: usize, key: &Key) -> Value {
        let replica = self.config.replica_id(site, self.config.shard_of(key));
        self.fabric
            .actor_as::<planet_mdcc::ReplicaActor>(replica)
            .expect("replica actor")
            .storage()
            .read(key)
            .value
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Metrics {
        self.fabric.metrics()
    }

    /// Fault injection: crash a site's replica at absolute time `at` —
    /// every shard of the site goes down together, as a host failure
    /// would take them. They stop serving until
    /// [`Planet::recover_site_at`]; their WALs survive.
    pub fn crash_site_at(&mut self, site: usize, at: SimTime) {
        self.inject_site_at(site, at, Msg::Crash);
    }

    /// Fault injection: recover a crashed replica at absolute time `at`
    /// (restart + WAL replay on every shard; they catch up on later writes
    /// via state transfer).
    pub fn recover_site_at(&mut self, site: usize, at: SimTime) {
        self.inject_site_at(site, at, Msg::Recover);
    }

    /// Mutable access to the network model (inject spikes/partitions).
    pub fn network_mut(&mut self) -> &mut NetworkModel {
        self.fabric.network_mut()
    }

    /// The underlying simulation (advanced harness use).
    pub fn sim_mut(&mut self) -> &mut Simulation<Msg> {
        &mut self.fabric
    }

    /// Deliver `msg` to every replica shard of `site` at `at`.
    fn inject_site_at(&mut self, site: usize, at: SimTime, msg: Msg) {
        for shard in 0..self.config.num_shards.max(1) {
            let replica = self.config.replica_id(site, shard);
            self.fabric.inject_at(at, replica, msg.clone());
        }
    }
}

impl Planet<Live> {
    /// The stream of [`TxnEvent`]s from every transaction submitted through
    /// this handle — progress with fresh likelihoods, speculative commits,
    /// deadline returns, final outcomes, apologies — in addition to any
    /// callbacks carried by the transactions themselves.
    pub fn events(&self) -> &Receiver<TxnEvent> {
        &self.fabric.events
    }

    /// Stop every task (clients, then coordinators, then replicas) and
    /// harvest the deployment: its records, and through
    /// [`harvest`](Planet::harvest) merged metrics and every actor.
    pub fn shutdown(self) -> Planet<Harvest> {
        Planet {
            fabric: self.fabric.cluster.shutdown(),
            clients: self.clients,
            config: self.config,
        }
    }
}

impl Planet<Harvest> {
    /// What the stopped cluster left: every actor with its metrics, and
    /// the messages the transport dropped or shed.
    pub fn harvest(&self) -> &Harvest {
        &self.fabric
    }
}
