//! The closed-loop driver of every live load: `planet-load` and the
//! live-cluster tests.
//!
//! Each site runs one product [`ClientActor`] that carries the site's share
//! of the virtual users: a [`SourceMode::Closed`] source with zero think
//! time, so a user submits its next transaction the moment the previous one
//! finishes. A live load thus runs the same client as the paper's
//! experiments (prediction, admission, progress callbacks), and the
//! client's lost-reply guard keeps a shed submit or a lost reply from
//! wedging a user. [`measure`] warms up, then drains every client's
//! finished records each 10 ms over a window and tallies them.

use std::any::Any;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
// check:allow(determinism) — live closed-loop driver; wall-clock windows are the point
use std::time::{Duration, Instant};

use planet_cluster::LiveCluster;
use planet_core::{ClientActor, FinalOutcome, PlanetTxn, SourceMode, TxnRecord, TxnSource};
use planet_mdcc::TxnSpec;
use planet_sim::metrics::Histogram;
use planet_sim::{ActorId, DetRng, SimDuration, SimTime};
use planet_storage::{Key, WriteOp};

use crate::SpecGen;

/// How often [`measure`] drains the clients' records.
const DRAIN_EVERY: Duration = Duration::from_millis(10);

/// What the virtual users submit.
#[derive(Clone)]
pub enum Mix {
    /// Commutative `add(1)` increments of a key drawn uniformly from the
    /// list.
    Increments(Arc<[Key]>),
    /// The specs of one generator shared by every user of every site, so
    /// paired transactions (write-skew twins, snapshot pairs) go to
    /// different users and overlap.
    Specs(Arc<Mutex<SpecGen>>),
}

/// One site's virtual users, as a [`TxnSource`].
struct ClosedLoop {
    users: usize,
    mix: Mix,
}

impl TxnSource for ClosedLoop {
    fn next_txn(&mut self, _now: SimTime, rng: &mut DetRng) -> Option<(PlanetTxn, SimDuration)> {
        let mut txn = PlanetTxn::builder().build();
        txn.spec = match &self.mix {
            Mix::Increments(keys) => {
                let key = keys.get(rng.index(keys.len()))?.clone();
                TxnSpec::write_one(key, WriteOp::add(1))
            }
            Mix::Specs(gen) => gen.lock().expect("spec generator poisoned").next_spec(rng),
        };
        Some((txn, SimDuration::ZERO))
    }

    fn mode(&self) -> SourceMode {
        SourceMode::Closed {
            concurrency: self.users,
        }
    }
}

/// Spawn one [`ClientActor`] per site of `cluster` that gets any of the
/// `users` virtual users (round-robined over the sites), each submitting
/// `mix` to its site's coordinator. Returns the clients' ids.
pub fn spawn(cluster: &mut LiveCluster, users: usize, mix: &Mix) -> Vec<ActorId> {
    let config = cluster.config().clone();
    let sites = config.num_sites;
    (0..sites)
        .filter_map(|site| {
            let users = (site..users).step_by(sites).count();
            if users == 0 {
                return None;
            }
            let coordinator = config.coordinator_id(site);
            let mut client = ClientActor::new(config.clone(), coordinator, site as u8, None);
            client.attach_source(Box::new(ClosedLoop {
                users,
                mix: mix.clone(),
            }));
            Some(cluster.spawn_client(site, Box::new(client)))
        })
        .collect()
}

/// What [`measure`] saw over its window.
#[derive(Default)]
pub struct Tally {
    /// Transactions that committed.
    pub committed: u64,
    /// Transactions that aborted (or were refused).
    pub aborted: u64,
    /// Transactions that timed out.
    pub timed_out: u64,
    /// Submit-to-outcome latency of every finished transaction, in µs.
    pub latency_us: Histogram,
    /// The window's wall-clock length.
    pub elapsed: Duration,
}

impl Tally {
    /// Every finished transaction.
    pub fn total(&self) -> u64 {
        self.committed + self.aborted + self.timed_out
    }

    /// Finished transactions per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        self.total() as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Share of the finished transactions that committed; 0 when none
    /// finished.
    pub fn commit_rate(&self) -> f64 {
        match self.total() {
            0 => 0.0,
            total => self.committed as f64 / total as f64,
        }
    }
}

/// Every record the `clients` finished since their last drain.
fn drain(cluster: &LiveCluster, clients: &[ActorId]) -> Vec<TxnRecord> {
    let (tx, rx) = channel();
    for &id in clients {
        let tx = tx.clone();
        let node = cluster.client(id).expect("a spawned client");
        node.call(move |actor| {
            let actor: &mut dyn Any = actor;
            let client = actor.downcast_mut::<ClientActor>().expect("a ClientActor");
            let _ = tx.send(client.take_records());
            Vec::new()
        });
    }
    drop(tx);
    rx.into_iter().flatten().collect()
}

/// Let `span` pass, handing every record the `clients` finish meanwhile to
/// `each`, drained every 10 ms; returns the time that passed.
fn drain_for(
    cluster: &LiveCluster,
    clients: &[ActorId],
    span: Duration,
    mut each: impl FnMut(TxnRecord),
) -> Duration {
    // check:allow(determinism) — measurement window of the live run
    let started = Instant::now();
    while let Some(left) = span.checked_sub(started.elapsed()) {
        std::thread::sleep(left.min(DRAIN_EVERY));
        drain(cluster, clients).into_iter().for_each(&mut each);
    }
    started.elapsed()
}

/// Let `warmup` pass with the records discarded, then tally every record
/// the `clients` finish over `window`.
pub fn measure(
    cluster: &LiveCluster,
    clients: &[ActorId],
    warmup: Duration,
    window: Duration,
) -> Tally {
    drain_for(cluster, clients, warmup, drop);
    let mut tally = Tally::default();
    tally.elapsed = drain_for(cluster, clients, window, |record| {
        tally.latency_us.record(record.latency.as_micros());
        match record.outcome {
            FinalOutcome::Committed => tally.committed += 1,
            FinalOutcome::TimedOut => tally.timed_out += 1,
            _ => tally.aborted += 1,
        }
    });
    tally
}
