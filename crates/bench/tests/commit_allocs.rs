//! A commit allocates what outlives it, and little else.
//!
//! Counted where counts repeat exactly: the single-threaded simulator runs
//! the same coordinator, replica and storage code as the live cluster, with
//! one buyer keeping a few compiled ticket purchases in flight. What a
//! purchase still allocates is payload — the `ReadResp` vector and the
//! parameters the buyer ships, about one each — and not the keys of its
//! `ReadReq` (two inline in a `KeyList`), the derived order key (held
//! inline in its `Key`), a version chain per order record at each replica,
//! a vector of peers per fan-out or an effects vector per event. A tripped
//! bound prints the five sites that allocated the most, from the sampling
//! `alloc_counter` attribution.
//!
//! Second half: the storage path alone. Accepting, deciding and (at a
//! follower) applying one `Set` on a fresh key allocates nothing for the
//! record — its first version and its pending option are held inline — so
//! what 10 000 fresh keys cost is the store's own growth: pages, the
//! interner's table, the log's vector.
//!
//! Lives here because this crate owns the counting `#[global_allocator]`;
//! one test alone in its file, so nothing else allocates while it counts
//! (the harness's own threads may, a little).

use planet_bench::alloc_counter::{alloc_count, start_attribution, stop_attribution};
use planet_core::{PlanId, PlanParam};
use planet_mdcc::{build_sim, ClusterConfig, Msg, Outcome, Protocol, TxnSpec};
use planet_sim::{Actor, ActorId, Context, NetworkModel, Simulation};
use planet_storage::{Key, RecordOption, Replica, TxnId, Value, WriteOp};
use planet_workload::{stock_key, ticket_program, TicketConfig};

const WARM_UP: u64 = 2_000;
const MEASURED: u64 = 20_000;
const EVENTS: u64 = 16;
const IN_FLIGHT: u64 = 8;
const PLAN: PlanId = 1;

/// Allocations per committed purchase: what this test reads (2.10, the
/// same on every run and in debug and release builds), plus 9 %. It read
/// 2.11 while each replica kept a history of replaced versions per key,
/// 3.11 while a `ReadReq` carried its keys in a `Vec`, 4.11 while the
/// derived order key was an `Arc<str>`, and 31.1 with a version chain per
/// order record at each replica, a peer vector per fan-out, a rendered
/// string per derived key and an effects vector per event.
const PER_COMMIT_BOUND: f64 = 2.3;

/// Seeds every event's stock, registers the ticket plan, then keeps
/// `IN_FLIGHT` purchases outstanding, events in rotation.
struct Buyer {
    coordinator: ActorId,
    seeded: u64,
    issued: u64,
    committed: u64,
}

impl Buyer {
    fn purchase(&mut self, ctx: &mut Context<'_, Msg>) {
        let event = self.issued % EVENTS;
        let params = vec![
            PlanParam::Key(event as u32),
            PlanParam::Int(self.issued as i64),
            PlanParam::Int(event as i64),
        ];
        let submit = Msg::SubmitPlan {
            plan: PLAN,
            params,
            reply_to: ctx.self_id(),
            tag: self.issued,
        };
        self.issued += 1;
        ctx.send(self.coordinator, submit);
    }
}

impl Actor<Msg> for Buyer {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        for event in 0..EVENTS {
            let stock = WriteOp::Set(Value::Int(i64::MAX / 2));
            let submit = Msg::Submit {
                spec: TxnSpec::write_one(stock_key(event), stock),
                reply_to: ctx.self_id(),
                tag: u64::MAX - event,
            };
            ctx.send(self.coordinator, submit);
        }
    }

    fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::TxnDone { outcome, .. } if self.seeded < EVENTS => {
                assert_eq!(outcome, Outcome::Committed, "seeding a stock record");
                self.seeded += 1;
                if self.seeded == EVENTS {
                    let config = TicketConfig {
                        events: EVENTS,
                        ..TicketConfig::default()
                    };
                    let register = Msg::RegisterPlan {
                        plan: PLAN,
                        program: ticket_program(&config, 0),
                        reply_to: ctx.self_id(),
                    };
                    ctx.send(self.coordinator, register);
                }
            }
            Msg::PlanReady { .. } => {
                for _ in 0..IN_FLIGHT {
                    self.purchase(ctx);
                }
            }
            Msg::TxnDone { outcome, .. } => {
                assert_eq!(outcome, Outcome::Committed, "a purchase");
                self.committed += 1;
                self.purchase(ctx);
            }
            _ => {}
        }
    }
}

/// Step `sim` until the buyer has seen `commits` purchases commit.
fn run_to(sim: &mut Simulation<Msg>, buyer: ActorId, commits: u64) {
    while sim.actor_as::<Buyer>(buyer).expect("the buyer").committed < commits {
        assert!(sim.step(), "the simulation ran dry");
    }
}

fn purchases_allocate_what_they_ship() {
    let lan = NetworkModel::from_rtt_ms(&vec![vec![0.2; 3]; 3]);
    let (mut sim, cluster) = build_sim(lan, ClusterConfig::new(3, Protocol::Fast), 23);
    let buyer = sim.add_actor(
        planet_sim::SiteId(0),
        Box::new(Buyer {
            coordinator: cluster.coordinators[0],
            seeded: 0,
            issued: 0,
            committed: 0,
        }),
    );
    run_to(&mut sim, buyer, WARM_UP);
    start_attribution();
    let before = alloc_count();
    run_to(&mut sim, buyer, WARM_UP + MEASURED);
    let allocs = alloc_count() - before;
    let attribution = stop_attribution();
    let per_commit = allocs as f64 / MEASURED as f64;
    // Resolved only if the bound trips: the sites that allocate the most.
    let top_sites = || -> String {
        attribution
            .top(5)
            .iter()
            .map(|(site, n)| format!("\n  {:.2} per commit  {site}", *n as f64 / MEASURED as f64))
            .collect()
    };
    assert!(
        per_commit <= PER_COMMIT_BOUND,
        "{allocs} allocations for {MEASURED} committed purchases \
         ({per_commit:.2} per commit; the bound is {PER_COMMIT_BOUND}); \
         the most sampled sites:{}",
        top_sites()
    );
}

fn a_record_written_once_allocates_nothing_of_its_own() {
    const KEYS: u64 = 10_000;
    // Built before the count: the keys (held inline, so the interner's copy
    // is free) and both replicas.
    let keys: Vec<Key> = (0..KEYS)
        .map(|k| Key::new(format!("order:0:{k}")))
        .collect();
    let (mut master, mut follower) = (Replica::new(), Replica::new());
    let before = alloc_count();
    for (k, key) in keys.iter().enumerate() {
        let txn = TxnId::new(0, k as u64);
        let set = WriteOp::Set(Value::Int(k as i64));
        master
            .accept(key, RecordOption::new(txn, 0, set))
            .expect("a fresh key accepts");
        assert_eq!(master.decide(key, txn, true), Some(1));
        assert!(follower.install(key, 1, Value::Int(k as i64), txn));
    }
    let allocs = alloc_count() - before;
    // The stores' own growth: a page's vector and its `Arc` per `PAGE_LEN`
    // records, and the doublings of the page table, the interner's tables
    // and the log (735 in all). A version chain per record would be `KEYS`
    // more at each replica.
    assert!(
        allocs <= KEYS / 10,
        "{allocs} allocations to write {KEYS} fresh keys at two replicas"
    );
    assert_eq!(master.store().len() as u64, KEYS);
    assert_eq!(follower.read(&keys[7]), master.read(&keys[7]));
}

#[test]
fn a_commit_allocates_what_outlives_it() {
    purchases_allocate_what_they_ship();
    a_record_written_once_allocates_nothing_of_its_own();
}
