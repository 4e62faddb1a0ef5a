//! Cluster assembly: the server actors of a cluster and their id layout,
//! wired into a simulation, plus a blocking-style test client for direct
//! protocol use.

use planet_sim::{Actor, ActorId, Context, NetworkModel, SimTime, Simulation, SiteId};
use planet_storage::{Key, Value, WriteOp};

use crate::config::ClusterConfig;
use crate::coordinator::CoordinatorActor;
use crate::messages::{Msg, Outcome, TxnSpec, TxnStats};
use crate::replica_actor::ReplicaActor;

/// Ids of the actors a built cluster consists of.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Replica actors, shard-major: `replicas[shard * num_sites + site]`.
    /// With one shard (the default) this is simply "indexed by site".
    pub replicas: Vec<ActorId>,
    /// Coordinator actor per site, indexed by site.
    pub coordinators: Vec<ActorId>,
    /// The configuration the cluster runs.
    pub config: ClusterConfig,
}

impl Cluster {
    /// The replica actor for `(site, shard)`.
    pub fn replica(&self, site: usize, shard: usize) -> ActorId {
        self.config.replica_id(site, shard)
    }
}

/// Every server actor of a cluster, in actor-id order, with the site it
/// runs at: `num_shards` replicas per site, shard-major, each given its
/// shard's replication group as peers, then one coordinator per site
/// ([`ClusterConfig::replica_id`], [`ClusterConfig::coordinator_id`]).
///
/// This is the one place the layout is decided: the simulated cluster, the
/// live cluster (channel or tcp, every node or one site's) and `planetd`
/// all run exactly these actors under exactly these ids.
pub fn server_actors(config: &ClusterConfig) -> Vec<(ActorId, SiteId, Box<dyn Actor<Msg>>)> {
    let n = config.num_sites;
    let shards = config.num_shards.max(1);
    let mut actors: Vec<(ActorId, SiteId, Box<dyn Actor<Msg>>)> = Vec::new();
    for shard in 0..shards {
        let peers: Vec<ActorId> = (0..n).map(|site| config.replica_id(site, shard)).collect();
        for (site, &id) in peers.iter().enumerate() {
            let actor = ReplicaActor::new(config.clone(), peers.clone(), shard);
            actors.push((id, SiteId(site as u8), Box::new(actor)));
        }
    }
    let replicas: Vec<ActorId> = actors.iter().map(|(id, ..)| *id).collect();
    for site in 0..n {
        let site_id = SiteId(site as u8);
        let actor = CoordinatorActor::new(config.clone(), replicas.clone(), site_id);
        actors.push((config.coordinator_id(site), site_id, Box::new(actor)));
    }
    actors
}

/// Build a cluster into `sim`: the [`server_actors`] of `config`. The sim
/// runs the sharded actors on its single deterministic thread, so seed
/// experiments are reproducible at any shard count.
///
/// Panics if the network model has fewer sites than the configuration.
pub fn build_cluster(sim: &mut Simulation<Msg>, config: ClusterConfig) -> Cluster {
    // Replica actors need their peer ids before they are constructed, so
    // the layout predicts the engine's dense assignment order. That
    // prediction is only valid on a fresh simulation (asserted per actor).
    let mut replicas: Vec<ActorId> = server_actors(&config)
        .into_iter()
        .map(|(id, site, actor)| {
            let assigned = sim.add_actor(site, actor);
            assert_eq!(assigned, id, "build_cluster requires a fresh simulation");
            id
        })
        .collect();
    let coordinators = replicas.split_off(replicas.len() - config.num_sites);
    Cluster {
        replicas,
        coordinators,
        config,
    }
}

/// Convenience: a fresh simulation plus a cluster over the given topology.
pub fn build_sim(
    net: NetworkModel,
    config: ClusterConfig,
    seed: u64,
) -> (Simulation<Msg>, Cluster) {
    assert!(
        net.num_sites() >= config.num_sites,
        "topology too small for cluster"
    );
    let mut sim = Simulation::new(net, seed);
    let cluster = build_cluster(&mut sim, config);
    (sim, cluster)
}

/// A terminal record captured by the [`TestClient`].
#[derive(Debug, Clone)]
pub struct CompletedTxn {
    /// Client tag from the submission.
    pub tag: u64,
    /// Outcome.
    pub outcome: Outcome,
    /// Coordinator statistics.
    pub stats: TxnStats,
}

/// A minimal client actor: submits a scripted list of transactions at given
/// times to a coordinator and records the outcomes. Used by protocol tests
/// and micro-experiments; the PLANET layer has its own, richer client.
pub struct TestClient {
    coordinator: ActorId,
    /// (submit time, spec) pairs, consumed in order.
    script: Vec<(SimTime, TxnSpec)>,
    /// Completed transactions by tag.
    pub completed: Vec<CompletedTxn>,
    /// Progress events seen, by (tag, description) — coarse, for assertions.
    pub progress_counts: usize,
}

impl TestClient {
    /// A client that will submit `script` (times must be non-decreasing).
    pub fn new(coordinator: ActorId, script: Vec<(SimTime, TxnSpec)>) -> Self {
        TestClient {
            coordinator,
            script,
            completed: Vec::new(),
            progress_counts: 0,
        }
    }

    /// The outcome recorded for submission `tag`, if finished.
    pub fn outcome(&self, tag: u64) -> Option<Outcome> {
        self.completed
            .iter()
            .find(|c| c.tag == tag)
            .map(|c| c.outcome)
    }
}

impl Actor<Msg> for TestClient {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        for (i, (at, _)) in self.script.iter().enumerate() {
            let delay = at.since(SimTime::ZERO);
            ctx.schedule(
                delay,
                Msg::ClientTimer {
                    kind: 0,
                    tag: i as u64,
                },
            );
        }
    }

    fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::ClientTimer { kind: 0, tag } => {
                // Timers are only armed for script entries, but a forged or
                // duplicated timer tag must not crash the client actor.
                let Some((_, spec)) = self.script.get(tag as usize) else {
                    return;
                };
                let spec = spec.clone();
                let me = ctx.self_id();
                ctx.send(
                    self.coordinator,
                    Msg::Submit {
                        spec,
                        reply_to: me,
                        tag,
                    },
                );
            }
            Msg::Progress { .. } => self.progress_counts += 1,
            Msg::TxnDone {
                tag,
                outcome,
                stats,
                ..
            } => {
                self.completed.push(CompletedTxn {
                    tag,
                    outcome,
                    stats,
                });
            }
            _ => {}
        }
    }
}

/// Build a write-one-key spec helper.
pub fn set_spec(key: &str, value: i64) -> TxnSpec {
    TxnSpec::write_one(Key::new(key), WriteOp::Set(Value::Int(value)))
}
