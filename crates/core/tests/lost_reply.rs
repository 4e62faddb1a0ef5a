//! A closed-loop [`ClientActor`] survives a lost reply.
//!
//! A closed-loop virtual user submits its next transaction only when the
//! previous one finishes, so one shed submit or dropped reply would wedge
//! it forever. The client's lost-reply guard finishes a closed-loop
//! transaction that is still in flight 2 × `txn_timeout` after it was
//! submitted as `TimedOut`, and the user moves on; a straggler reply for it
//! is then dropped.

use planet_core::{ClientActor, FinalOutcome, PlanetTxn, SourceMode, TxnSource};
use planet_mdcc::{ClusterConfig, Msg, Outcome, Protocol, TxnStats};
use planet_sim::{
    topology, Actor, ActorId, Context, DetRng, SimDuration, SimTime, Simulation, SiteId,
};
use planet_storage::TxnId;

/// One virtual user incrementing one key, with no think time.
struct OneUser;

impl TxnSource for OneUser {
    fn next_txn(&mut self, _now: SimTime, _rng: &mut DetRng) -> Option<(PlanetTxn, SimDuration)> {
        Some((PlanetTxn::builder().add("k0", 1).build(), SimDuration::ZERO))
    }

    fn mode(&self) -> SourceMode {
        SourceMode::Closed { concurrency: 1 }
    }
}

/// A closed-loop client at site 1 submitting to `coordinator`, whose
/// transactions time out after 25 ms: the guard fires at 50 ms.
fn client(coordinator: ActorId) -> ClientActor {
    let mut config = ClusterConfig::new(3, Protocol::Fast);
    config.txn_timeout = SimDuration::from_millis(25);
    let mut client = ClientActor::new(config, coordinator, 1, None);
    client.attach_source(Box::new(OneUser));
    client
}

/// Run `coordinator` and a closed-loop client against it for `span`, and
/// return the client's records.
fn run(coordinator: Box<dyn Actor<Msg>>, seed: u64, span: SimDuration) -> Vec<FinalOutcome> {
    let mut sim = Simulation::new(topology::three_dc(), seed);
    let coordinator = sim.add_actor(SiteId(0), coordinator);
    let client_id = sim.add_actor(SiteId(1), Box::new(client(coordinator)));
    sim.run_for(span);
    let client = sim.actor_as::<ClientActor>(client_id).expect("client");
    let records = client.records();
    let mut handles: Vec<_> = records.iter().map(|r| r.handle).collect();
    handles.sort_by_key(|h| h.tag);
    handles.dedup();
    assert_eq!(
        handles.len(),
        records.len(),
        "each txn reported exactly once"
    );
    records.iter().map(|r| r.outcome).collect()
}

/// A coordinator that swallows every message: the worst network.
struct BlackHole;

impl Actor<Msg> for BlackHole {
    fn on_message(&mut self, _from: ActorId, _msg: Msg, _ctx: &mut Context<'_, Msg>) {}
}

#[test]
fn lost_reply_times_out_and_loop_continues() {
    // Long enough for several guards to expire back to back.
    let outcomes = run(Box::new(BlackHole), 7, SimDuration::from_millis(400));
    assert!(
        outcomes.len() >= 2,
        "client wedged after a lost reply: only {} record(s)",
        outcomes.len()
    );
    assert!(
        outcomes.iter().all(|&o| o == FinalOutcome::TimedOut),
        "black-holed submits must surface as TimedOut: {outcomes:?}"
    );
}

/// A coordinator that commits every submit, but replies only `delay` later:
/// far past the client's guard.
struct EchoLate {
    delay: SimDuration,
    pending: Vec<(ActorId, u64)>,
}

impl Actor<Msg> for EchoLate {
    fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::Submit { tag, reply_to, .. } => {
                self.pending.push((reply_to, tag));
                ctx.schedule(self.delay, Msg::ClientTimer { kind: 9, tag });
            }
            Msg::ClientTimer { kind: 9, tag } => {
                if let Some(pos) = self.pending.iter().position(|(_, t)| *t == tag) {
                    let (reply_to, tag) = self.pending.remove(pos);
                    let now = ctx.now();
                    ctx.send(
                        reply_to,
                        Msg::TxnDone {
                            tag,
                            txn: TxnId::new(0, tag),
                            outcome: Outcome::Committed,
                            stats: TxnStats {
                                submitted_at: now,
                                decided_at: now,
                                proposals_sent_at: now,
                                write_keys: 1,
                                votes_received: 0,
                                rejections: 0,
                            },
                        },
                    );
                }
            }
            _ => {}
        }
    }
}

#[test]
fn straggler_reply_after_deadline_is_dropped() {
    let echo = EchoLate {
        delay: SimDuration::from_millis(200),
        pending: Vec::new(),
    };
    let outcomes = run(Box::new(echo), 11, SimDuration::from_millis(500));
    assert!(!outcomes.is_empty(), "the guard never fired");
    // Every reported outcome is the guard's verdict: the late commits found
    // nothing in flight and were dropped.
    assert!(
        outcomes.iter().all(|&o| o == FinalOutcome::TimedOut),
        "a straggler reply reached a record: {outcomes:?}"
    );
}
