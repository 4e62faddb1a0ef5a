//! The live counterpart of [`Planet`](crate::Planet): the same PLANET
//! programming model — progress callbacks, commit-likelihood prediction,
//! speculative commits, chained transactions — served by a
//! [`planet_cluster::LiveCluster`], where every replica, coordinator and
//! per-site client runs as a task on the reactor's worker threads and real
//! (wall-clock) time drives the network model.
//!
//! The protocol and client logic are byte-for-byte the ones the simulation
//! runs: the reactor steps the very same actors through
//! [`planet_sim::drive_into`], and the per-site [`ClientActor`] is shared
//! unchanged. What changes is only the scheduler (worker threads instead of
//! the deterministic event heap) and the transport (the in-process channel
//! fabric). Live runs are therefore *not* replayable; the simulated
//! [`Planet`](crate::Planet) remains the ground truth for experiments.
//!
//! ```no_run
//! use planet_core::{LivePlanet, PlanetTxn, TxnEvent};
//!
//! let mut db = LivePlanet::builder().build();
//! let handle = db.submit(0, PlanetTxn::builder().set("k", 1i64).build());
//! while let Ok(event) = db.events().recv() {
//!     if let TxnEvent::Final { handle: h, outcome, .. } = event {
//!         if h == handle { assert!(outcome.is_commit()); break; }
//!     }
//! }
//! let harvest = db.shutdown();
//! assert_eq!(harvest.records(0).len(), 1);
//! ```

use std::sync::mpsc::{channel, Receiver, Sender};

use planet_cluster::{Harvest, LiveCluster, PlaneConfig};
use planet_mdcc::{ClusterConfig, CoordinatorActor, Msg, Protocol};
use planet_plan::{PlanError, PlanId, PlanParam, TxnProgram};
use planet_sim::{ActorId, Metrics, NetworkModel, SimDuration};

use crate::admission::AdmissionPolicy;
use crate::client::{ClientActor, TxnRecord, TIMER_CANCEL, TIMER_SUBMIT};
use crate::txn::{ChainTrigger, PlanetTxn, TxnEvent, TxnHandle};

/// Builder for [`LivePlanet`]. Mirrors [`PlanetBuilder`](crate::PlanetBuilder)
/// option for option, so a configuration can be moved between the simulated
/// and live worlds by changing one type name.
pub struct LivePlanetBuilder {
    topology: NetworkModel,
    protocol: Protocol,
    seed: u64,
    admission: Option<AdmissionPolicy>,
    txn_timeout: SimDuration,
    validation_service: SimDuration,
    fast_fallback: bool,
    plane: PlaneConfig,
}

impl Default for LivePlanetBuilder {
    fn default() -> Self {
        LivePlanetBuilder {
            topology: planet_sim::topology::five_dc(),
            protocol: Protocol::Fast,
            seed: 42,
            admission: None,
            txn_timeout: SimDuration::from_secs(10),
            validation_service: SimDuration::ZERO,
            fast_fallback: false,
            plane: PlaneConfig::default(),
        }
    }
}

impl LivePlanetBuilder {
    /// Use a custom network model (default: the five-data-center WAN). Its
    /// delays, loss, spikes and partitions are applied to live deliveries,
    /// with wall-clock time since cluster start standing in for simulated
    /// time.
    pub fn topology(mut self, net: NetworkModel) -> Self {
        self.topology = net;
        self
    }

    /// Choose the commit protocol (default: MDCC fast path).
    pub fn protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Seed the fabric and node RNGs (default: 42). Live runs are not
    /// replayable, but sampling stays well-defined.
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

    /// Enable the fast path's classic-path collision fallback.
    pub fn fast_fallback(mut self, enabled: bool) -> Self {
        self.fast_fallback = enabled;
        self
    }

    /// Model finite replica validation capacity (FIFO, one server).
    pub fn validation_service(mut self, service: SimDuration) -> Self {
        self.validation_service = service;
        self
    }

    /// Tune the message plane (drain batch size, mailbox capacity, fabric
    /// shard count). Defaults to [`PlaneConfig::default`]. Shed submits
    /// surface to clients as timed-out outcomes, exactly like
    /// admission-refused transactions.
    pub fn plane(mut self, plane: PlaneConfig) -> Self {
        self.plane = plane;
        self
    }

    /// Spawn the cluster: replica, coordinator and client tasks at every
    /// site of the topology.
    pub fn build(self) -> LivePlanet {
        let num_sites = self.topology.num_sites();
        let mut config = ClusterConfig::new(num_sites, self.protocol);
        config.txn_timeout = self.txn_timeout;
        config.validation_service = self.validation_service;
        config.fast_fallback = self.fast_fallback;
        let mut cluster = LiveCluster::builder(config.clone())
            .network(self.topology)
            .seed(self.seed)
            .plane(self.plane)
            .build();
        let (event_tx, event_rx) = channel();
        let clients: Vec<ActorId> = (0..num_sites)
            .map(|site| {
                let actor = ClientActor::new(
                    config.clone(),
                    cluster.coordinator(site),
                    site as u8,
                    self.admission,
                );
                cluster.spawn_client(site, Box::new(actor))
            })
            .collect();
        LivePlanet {
            cluster,
            clients,
            event_tx,
            event_rx,
        }
    }
}

/// A live PLANET deployment: the full stack of
/// [`Planet`](crate::Planet) — replicas, coordinators, per-site clients with
/// prediction and admission — running on the reactor and the in-process
/// transport, against the wall clock.
pub struct LivePlanet {
    cluster: LiveCluster,
    clients: Vec<ActorId>,
    event_tx: Sender<TxnEvent>,
    event_rx: Receiver<TxnEvent>,
}

impl LivePlanet {
    /// Start building a live deployment.
    pub fn builder() -> LivePlanetBuilder {
        LivePlanetBuilder::default()
    }

    /// Number of sites (data centers).
    pub fn num_sites(&self) -> usize {
        self.clients.len()
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        self.cluster.config()
    }

    /// The stream of [`TxnEvent`]s from every transaction submitted through
    /// this handle — progress with fresh likelihoods, speculative commits,
    /// deadline returns, final outcomes, apologies — in addition to any
    /// callbacks carried by the transactions themselves.
    pub fn events(&self) -> &Receiver<TxnEvent> {
        &self.event_rx
    }

    /// Submit a transaction at `site`. Returns once the site's client task
    /// has staged and scheduled it; the outcome arrives on
    /// [`LivePlanet::events`].
    pub fn submit(&mut self, site: usize, txn: PlanetTxn) -> TxnHandle {
        let txn = self.with_forwarder(txn);
        let (reply_tx, reply_rx) = channel();
        self.client_node(site).call(move |actor| {
            let client = as_client(actor);
            let handle = client.stage(txn);
            let _ = reply_tx.send(handle);
            vec![Msg::ClientTimer {
                kind: TIMER_SUBMIT,
                tag: handle.tag,
            }]
        });
        reply_rx.recv().expect("client node gone")
    }

    /// Install a compiled transaction program under `plan` on every
    /// coordinator and client task — the live twin of
    /// [`Planet::install_program`](crate::Planet::install_program). Returns
    /// once every coordinator has compiled and accepted the program.
    pub fn install_program(&mut self, plan: PlanId, program: TxnProgram) -> Result<(), PlanError> {
        program.validate()?;
        for site in 0..self.num_sites() {
            let coord = self.cluster.coordinator(site);
            let node = self.cluster.server(coord).expect("coordinator node");
            let prog = program.clone();
            let (reply_tx, reply_rx) = channel();
            node.call(move |actor| {
                let any: &mut dyn std::any::Any = actor;
                let coordinator = any
                    .downcast_mut::<CoordinatorActor>()
                    .expect("server node hosts a CoordinatorActor");
                let _ = reply_tx.send(coordinator.install_plan(plan, prog));
                Vec::new()
            });
            reply_rx.recv().expect("coordinator node gone")?;
            let prog = program.clone();
            self.client_node(site).call(move |actor| {
                as_client(actor).install_program(plan, prog);
                Vec::new()
            });
        }
        Ok(())
    }

    /// Submit one execution of an installed program at `site` — the
    /// plan-handle twin of [`LivePlanet::submit`].
    pub fn submit_plan(&mut self, site: usize, plan: PlanId, params: Vec<PlanParam>) -> TxnHandle {
        self.submit(site, PlanetTxn::builder().via_plan(plan, params).build())
    }

    /// Chain a transaction behind another at the same site, exactly as
    /// [`Planet::submit_after`](crate::Planet::submit_after): launched when
    /// `after` reaches `trigger`, cancelled if `after` fails. The
    /// predecessor's current state is resolved inside the client task, so
    /// there is no race with an in-flight outcome.
    pub fn submit_after(
        &mut self,
        after: TxnHandle,
        trigger: ChainTrigger,
        txn: PlanetTxn,
    ) -> TxnHandle {
        let txn = self.with_forwarder(txn);
        let (reply_tx, reply_rx) = channel();
        self.client_node(after.site as usize).call(move |actor| {
            let client = as_client(actor);
            let prior = client.record(after).map(|r| r.outcome);
            match prior {
                Some(outcome) if outcome.is_commit() => {
                    let handle = client.stage(txn);
                    let _ = reply_tx.send(handle);
                    vec![Msg::ClientTimer {
                        kind: TIMER_SUBMIT,
                        tag: handle.tag,
                    }]
                }
                Some(_) => {
                    let handle = client.stage(txn);
                    let _ = reply_tx.send(handle);
                    vec![Msg::ClientTimer {
                        kind: TIMER_CANCEL,
                        tag: handle.tag,
                    }]
                }
                None => {
                    let handle = client.stage_chained(txn, after.tag, trigger);
                    let _ = reply_tx.send(handle);
                    Vec::new()
                }
            }
        });
        reply_rx.recv().expect("client node gone")
    }

    /// Admission statistics `(admitted, refused)` for one site, read from
    /// the live client task.
    pub fn admission_stats(&self, site: usize) -> (u64, u64) {
        let (reply_tx, reply_rx) = channel();
        self.client_node(site).call(move |actor| {
            let _ = reply_tx.send(as_client(actor).admission_stats());
            Vec::new()
        });
        reply_rx.recv().expect("client node gone")
    }

    /// Stop every task (clients, then coordinators, then replicas) and
    /// harvest the deployment for inspection.
    pub fn shutdown(self) -> LiveHarvest {
        let LivePlanet {
            cluster,
            clients,
            event_tx,
            event_rx,
        } = self;
        drop(event_tx);
        let harvest = cluster.shutdown();
        // Drain any events still in the channel at shutdown.
        let pending_events: Vec<TxnEvent> = event_rx.try_iter().collect();
        LiveHarvest {
            harvest,
            clients,
            pending_events,
        }
    }

    fn client_node(&self, site: usize) -> &planet_cluster::NodeHandle {
        let id = self.clients[site];
        self.cluster.client(id).expect("client node registered")
    }

    /// Every submitted transaction also streams its events to the shared
    /// channel, preserving its own callbacks.
    fn with_forwarder(&self, mut txn: PlanetTxn) -> PlanetTxn {
        let forward = self.event_tx.clone();
        txn.callbacks.push(Box::new(move |e: &TxnEvent| {
            let _ = forward.send(e.clone());
        }));
        txn
    }
}

/// Everything recovered from a stopped [`LivePlanet`]: per-site transaction
/// records (with full prediction traces), merged metrics, and the raw
/// harvested actors.
pub struct LiveHarvest {
    harvest: Harvest,
    clients: Vec<ActorId>,
    /// Events that were still queued when the deployment stopped.
    pub pending_events: Vec<TxnEvent>,
}

impl LiveHarvest {
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

    /// All node metrics merged into one registry.
    pub fn metrics(&self) -> Metrics {
        self.harvest.merged_metrics()
    }

    /// Messages the transport dropped (loss model, partitions, shutdown).
    pub fn dropped(&self) -> u64 {
        self.harvest.dropped
    }

    /// The raw cluster harvest (downcast replicas, coordinators, clients).
    pub fn cluster(&self) -> &Harvest {
        &self.harvest
    }

    fn client(&self, site: usize) -> &ClientActor {
        self.harvest
            .actor_as::<ClientActor>(self.clients[site])
            .expect("client actor harvested")
    }
}

fn as_client(actor: &mut dyn planet_sim::Actor<Msg>) -> &mut ClientActor {
    let any: &mut dyn std::any::Any = actor;
    any.downcast_mut::<ClientActor>()
        .expect("client node hosts a ClientActor")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::FinalOutcome;
    use std::time::{Duration, Instant};

    fn lan(n: usize) -> NetworkModel {
        let rtt: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| if i == j { 0.05 } else { 1.0 }).collect())
            .collect();
        NetworkModel::from_rtt_ms(&rtt)
    }

    fn wait_final(db: &LivePlanet, want: TxnHandle, secs: u64) -> Option<FinalOutcome> {
        let deadline = Instant::now() + Duration::from_secs(secs);
        while Instant::now() < deadline {
            match db.events().recv_timeout(Duration::from_millis(200)) {
                Ok(TxnEvent::Final {
                    handle, outcome, ..
                }) if handle == want => return Some(outcome),
                _ => {}
            }
        }
        None
    }

    #[test]
    fn live_commit_streams_events_and_harvests_records() {
        let mut db = LivePlanet::builder().topology(lan(3)).seed(9).build();
        let handle = db.submit(0, PlanetTxn::builder().set("live-k", 7i64).build());
        assert_eq!(wait_final(&db, handle, 20), Some(FinalOutcome::Committed));
        let harvest = db.shutdown();
        let record = harvest.record(handle).expect("record harvested");
        assert!(record.outcome.is_commit());
        assert!(!record.predictions.is_empty(), "prediction trace recorded");
        assert_eq!(harvest.all_records().len(), 1);
    }

    #[test]
    fn multiple_inflight_transactions_multiplex() {
        // Four transactions at three sites share one event stream; finals
        // are collected in one loop (`wait_final` discards other handles'
        // events).
        let mut db = LivePlanet::builder().topology(lan(3)).seed(7).build();
        let handles: Vec<TxnHandle> = (0..4)
            .map(|i| {
                db.submit(
                    i % 3,
                    PlanetTxn::builder().set(format!("m{i}"), i as i64).build(),
                )
            })
            .collect();
        let mut finals = std::collections::HashMap::new();
        while finals.len() < handles.len() {
            match db.events().recv_timeout(Duration::from_secs(20)) {
                Ok(TxnEvent::Final {
                    handle, outcome, ..
                }) => finals.insert(handle, outcome),
                Ok(_) => None,
                Err(e) => panic!("{} of 4 finals: {e}", finals.len()),
            };
        }
        assert!(handles.iter().all(|h| finals[h] == FinalOutcome::Committed));
        assert_eq!(db.shutdown().all_records().len(), 4);
    }

    #[test]
    fn drop_without_shutdown_does_not_hang() {
        let mut db = LivePlanet::builder().topology(lan(3)).seed(6).build();
        let _ = db.submit(0, PlanetTxn::builder().set("x", 1i64).build());
        let began = Instant::now();
        drop(db);
        assert!(began.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn speculative_event_fires_before_final() {
        let mut db = LivePlanet::builder().topology(lan(3)).seed(10).build();
        let txn = PlanetTxn::builder()
            .set("spec-k", 1i64)
            .speculate_at(0.5)
            .build();
        let handle = db.submit(0, txn);
        let mut speculated = false;
        let deadline = Instant::now() + Duration::from_secs(20);
        let outcome = loop {
            if Instant::now() >= deadline {
                break None;
            }
            match db.events().recv_timeout(Duration::from_millis(200)) {
                Ok(TxnEvent::Speculative { handle: h, .. }) if h == handle => speculated = true,
                Ok(TxnEvent::Final {
                    handle: h, outcome, ..
                }) if h == handle => break Some(outcome),
                _ => {}
            }
        };
        assert_eq!(outcome, Some(FinalOutcome::Committed));
        assert!(
            speculated,
            "speculative commit fired before the final outcome"
        );
        db.shutdown();
    }

    #[test]
    fn chained_transaction_follows_committed_predecessor() {
        let mut db = LivePlanet::builder().topology(lan(3)).seed(11).build();
        let first = db.submit(0, PlanetTxn::builder().set("chain-a", 1i64).build());
        let second = db.submit_after(
            first,
            ChainTrigger::Commit,
            PlanetTxn::builder().set("chain-b", 2i64).build(),
        );
        assert_eq!(wait_final(&db, second, 20), Some(FinalOutcome::Committed));
        let harvest = db.shutdown();
        assert!(harvest
            .record(first)
            .expect("first finished")
            .outcome
            .is_commit());
        assert!(harvest
            .record(second)
            .expect("second finished")
            .outcome
            .is_commit());
    }
}
