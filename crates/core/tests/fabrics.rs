//! The front end on every fabric: each test runs one body against the
//! simulated deployment, the live channel fabric and live tcp (every site
//! on `127.0.0.1:0`), waiting for outcomes through [`Planet::wait`] — the
//! one method that reads the same in virtual and in wall-clock time.

use std::time::{Duration, Instant};

use planet_core::{
    ChainTrigger, DeltaRef, Fabric, FinalOutcome, Key, KeyRef, Live, LiveFabric, OpTemplate,
    PlanParam, PlaneConfig, Planet, PlanetTxn, Protocol, Sim, SimDuration, TxnEvent, TxnHandle,
    TxnProgram, TxnRecord, Value,
};
use planet_sim::NetworkModel;

/// Sites of every deployment here.
const SITES: usize = 3;

/// How long a transaction may take before a test gives up on it.
const WITHIN: SimDuration = SimDuration::from_secs(20);

/// A LAN: 1 ms between sites, 50 µs within one.
fn lan() -> NetworkModel {
    let mut rtt = vec![vec![1.0; SITES]; SITES];
    (0..SITES).for_each(|i| rtt[i][i] = 0.05);
    NetworkModel::from_rtt_ms(&rtt)
}

/// The live fabrics, each hosting every site in this process.
fn live_fabrics() -> [(&'static str, LiveFabric); 2] {
    let loopback = "127.0.0.1:0".parse().expect("loopback");
    [
        ("channel", LiveFabric::Channel(PlaneConfig::default())),
        ("tcp", LiveFabric::Tcp(vec![loopback; SITES])),
    ]
}

/// Run `$body` with `$db` bound to a fresh deployment on each fabric in
/// turn: `Planet::builder()` on the LAN, configured by `$configure` (which
/// sees the builder as `$b`), then `build()` or `live(fabric)`. The
/// optional `$tail` then runs on the finished deployment `$done` — the
/// simulation, or the harvest of the shut-down live cluster — with
/// `$metrics` its metrics, merged across nodes on a live fabric.
macro_rules! on_every_fabric {
    (|$b:ident| $configure:expr, |$db:ident| $body:block) => {
        on_every_fabric!(|$b| $configure, |$db| $body, |_done, _metrics| {})
    };
    (
        |$b:ident| $configure:expr,
        |$db:ident| $body:block,
        |$done:ident, $metrics:ident| $tail:block
    ) => {{
        let builder = || {
            let $b = Planet::builder().topology(lan());
            $configure
        };
        {
            eprintln!("on sim");
            let mut $db = builder().build();
            $body
            let $metrics = $db.metrics();
            let $done = &$db;
            $tail
        }
        for (name, fabric) in live_fabrics() {
            eprintln!("on {name}");
            let mut $db = builder().live(fabric);
            $body
            let harvested = $db.shutdown();
            let merged = harvested.harvest().merged_metrics();
            let $metrics = &merged;
            let $done = &harvested;
            $tail
        }
    }};
}

/// How [`read_until`] reads back a committed write on a fabric, which
/// reaches a replica just after its client hears of the commit: let it
/// settle, and return how many reads may be spent. The simulation lets a
/// second pass and must then show the write to the first read; a live
/// fabric reads again until it does.
trait ReadBack: Fabric + Sized {
    fn settle(db: &mut Planet<Self>) -> usize;
}

impl ReadBack for Sim {
    fn settle(db: &mut Planet<Sim>) -> usize {
        db.run_for(SimDuration::from_secs(1));
        1
    }
}

impl ReadBack for Live {
    fn settle(_: &mut Planet<Live>) -> usize {
        200
    }
}

/// Wait for `handle`'s record, which must arrive within [`WITHIN`].
fn finish<F: Fabric>(db: &mut Planet<F>, handle: TxnHandle) -> TxnRecord {
    db.wait(handle, WITHIN).expect("the transaction finishes")
}

/// Submit `read` at `site` until it reads `key` as `want`, at most
/// [`ReadBack::settle`] times, and return that transaction's record.
fn read_until<F: ReadBack>(
    db: &mut Planet<F>,
    site: usize,
    read: impl Fn() -> PlanetTxn,
    key: &str,
    want: &Value,
) -> TxnRecord {
    for _ in 0..F::settle(db) {
        let handle = db.submit(site, read());
        let record = finish(db, handle);
        if read_of(&record, key).1 == *want {
            return record;
        }
    }
    panic!("{key} never read as {want:?}");
}

/// What `record` read of `key`: the key, the value and its version.
fn read_of<'r>(record: &'r TxnRecord, key: &str) -> &'r (Key, Value, u64) {
    let mut reads = record.reads.iter();
    reads.find(|(k, _, _)| k.as_str() == key).expect("read")
}

#[test]
fn records_expose_read_results() {
    on_every_fabric!(|b| b.protocol(Protocol::Fast).seed(1), |db| {
        let w = db.submit(0, PlanetTxn::builder().set("answer", 42i64).build());
        assert!(finish(&mut db, w).outcome.is_commit());

        let read = || PlanetTxn::builder().read("answer").read("absent").build();
        let record = read_until(&mut db, 0, read, "answer", &Value::Int(42));
        assert_eq!(record.outcome, FinalOutcome::Committed);
        assert_eq!(record.reads.len(), 2);
        assert_eq!(read_of(&record, "answer").2, 1, "first committed version");
        let absent = read_of(&record, "absent");
        assert_eq!((&absent.1, absent.2), (&Value::None, 0));
    });
}

#[test]
fn recorded_byte_reads_own_their_bytes() {
    // On tcp a read result arrives as a view into a 16 KiB receive chunk;
    // the record must hold its own 64 bytes, not pin the chunk.
    let bytes = Value::bytes(vec![7u8; 64]);
    on_every_fabric!(|b| b.seed(2), |db| {
        let w = db.submit(0, PlanetTxn::builder().set("blob", bytes.clone()).build());
        assert!(finish(&mut db, w).outcome.is_commit());
        let read = || PlanetTxn::builder().read("blob").build();
        let record = read_until(&mut db, 0, read, "blob", &bytes);
        let Value::Bytes(recorded) = &record.reads[0].1 else {
            panic!("a byte value");
        };
        assert!(!recorded.is_view(), "the recorded read owns its bytes");
    });
}

#[test]
fn works_on_every_protocol() {
    for protocol in [Protocol::Fast, Protocol::Classic, Protocol::TwoPc] {
        on_every_fabric!(|b| b.protocol(protocol).seed(10), |db| {
            let txn = PlanetTxn::builder()
                .read("r")
                .set("w1", 1i64)
                .add("w2", 5)
                .build();
            let h = db.submit(2, txn);
            let outcome = finish(&mut db, h).outcome;
            assert_eq!(outcome, FinalOutcome::Committed, "{protocol}");
            let read = || PlanetTxn::builder().read("w2").build();
            read_until(&mut db, 2, read, "w2", &Value::Int(5));
        });
    }
}

#[test]
fn failed_predecessor_cancels_the_chain() {
    on_every_fabric!(
        |b| b.protocol(Protocol::Fast).seed(3),
        |db| {
            // A decrement below the floor on an unseeded key must abort.
            let doomed = db.submit(
                0,
                PlanetTxn::builder()
                    .add_with_floor("empty-stock", -5, 0)
                    .build(),
            );
            let chained = db.submit_after(
                doomed,
                ChainTrigger::Commit,
                PlanetTxn::builder().set("never", 1i64).build(),
            );
            // And a third chained on the second: cancellation must cascade.
            let third = db.submit_after(
                chained,
                ChainTrigger::Speculative,
                PlanetTxn::builder().set("never2", 1i64).build(),
            );
            assert_eq!(finish(&mut db, doomed).outcome, FinalOutcome::Aborted);
            assert_eq!(finish(&mut db, chained).outcome, FinalOutcome::Cancelled);
            assert_eq!(finish(&mut db, third).outcome, FinalOutcome::Cancelled);
            // The cancelled writes never reached storage.
            let read = || PlanetTxn::builder().read("never").build();
            read_until(&mut db, 0, read, "never", &Value::None);
        },
        |_done, metrics| {
            assert_eq!(metrics.counter_value("planet.cancelled"), 2);
        }
    );
}

#[test]
fn chaining_after_terminal_predecessor_resolves_immediately() {
    on_every_fabric!(|b| b.protocol(Protocol::Fast).seed(4), |db| {
        let committed = db.submit(0, PlanetTxn::builder().set("done", 1i64).build());
        assert!(finish(&mut db, committed).outcome.is_commit());

        // Chain after an already-committed txn → submits now.
        let late = db.submit_after(
            committed,
            ChainTrigger::Commit,
            PlanetTxn::builder().set("late", 2i64).build(),
        );
        // Chain after an already-failed txn → cancelled now.
        let failed = db.submit(
            0,
            PlanetTxn::builder().add_with_floor("none", -1, 0).build(),
        );
        assert!(!finish(&mut db, failed).outcome.is_commit());
        let dead = db.submit_after(
            failed,
            ChainTrigger::Commit,
            PlanetTxn::builder().set("dead", 3i64).build(),
        );
        assert_eq!(finish(&mut db, late).outcome, FinalOutcome::Committed);
        assert_eq!(finish(&mut db, dead).outcome, FinalOutcome::Cancelled);
    });
}

#[test]
fn installed_programs_run_on_every_shard() {
    const DEPOSIT: u32 = 1;
    const BALANCE: u32 = 2;
    const ACCOUNTS: u32 = 4;
    let mut accounts = TxnProgram::new("accounts");
    for a in 0..ACCOUNTS {
        accounts.intern(format!("acct:{a}").into());
    }
    let deposit = accounts.clone().write(
        KeyRef::Param(0),
        OpTemplate::Add {
            delta: DeltaRef::Param(1),
            lower: None,
            upper: None,
        },
    );
    let balance = accounts.read(KeyRef::Param(0));
    on_every_fabric!(|b| b.shards(2).seed(5), |db| {
        assert!(db.install_program(DEPOSIT, deposit.clone()).is_ok());
        assert!(db.install_program(BALANCE, balance.clone()).is_ok());
        for site in 0..SITES {
            for a in 0..ACCOUNTS {
                let params = vec![PlanParam::Key(a), PlanParam::Int(a as i64 + 1)];
                let h = db.submit_plan(site, DEPOSIT, params);
                assert!(
                    finish(&mut db, h).outcome.is_commit(),
                    "site {site} acct:{a}"
                );
            }
            assert_eq!(db.admission_stats(site), (ACCOUNTS as u64, 0));
        }
        for a in 0..ACCOUNTS {
            let read = || {
                PlanetTxn::builder()
                    .via_plan(BALANCE, vec![PlanParam::Key(a)])
                    .build()
            };
            let want = Value::Int(SITES as i64 * (a as i64 + 1));
            read_until(&mut db, 0, read, &format!("acct:{a}"), &want);
        }
        assert!(
            db.install_program(3, TxnProgram::new("bad").read(KeyRef::Fixed(0)))
                .is_err(),
            "an invalid program is refused"
        );
    });
}

#[test]
fn multiple_inflight_transactions_multiplex() {
    on_every_fabric!(
        |b| b.seed(7),
        |db| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    db.submit(
                        i % SITES,
                        PlanetTxn::builder().set(format!("m{i}"), i as i64).build(),
                    )
                })
                .collect();
            for handle in handles {
                assert_eq!(finish(&mut db, handle).outcome, FinalOutcome::Committed);
            }
        },
        |done, _metrics| {
            let records = done.all_records();
            assert_eq!(records.len(), 4);
            assert!(records.iter().all(|r| !r.predictions.is_empty()), "traces");
        }
    );
}

#[test]
fn chained_transaction_follows_committed_predecessor() {
    on_every_fabric!(|b| b.seed(11), |db| {
        let txn = PlanetTxn::builder().set("chain-a", 1i64).speculate_at(0.5);
        let first = db.submit(0, txn.build());
        let second = db.submit_after(
            first,
            ChainTrigger::Commit,
            PlanetTxn::builder().set("chain-b", 2i64).build(),
        );
        assert_eq!(finish(&mut db, second).outcome, FinalOutcome::Committed);
        let first = finish(&mut db, first);
        assert!(first.outcome.is_commit());
        assert!(first.speculated_at.expect("speculated") <= first.latency);
    });
}

#[test]
fn events_stream_and_shutdown_harvests_the_records() {
    for (name, fabric) in live_fabrics() {
        let mut db = Planet::builder().topology(lan()).seed(8).live(fabric);
        let txn = PlanetTxn::builder()
            .set("ev-k", 1i64)
            .speculate_at(0.5)
            .build();
        let handle = db.submit(0, txn);
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut speculated = false;
        let outcome = loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match db.events().recv_timeout(left) {
                Ok(TxnEvent::Speculative { handle: h, .. }) if h == handle => speculated = true,
                Ok(TxnEvent::Final {
                    handle: h, outcome, ..
                }) if h == handle => break outcome,
                Ok(_) => {}
                Err(e) => panic!("{name}: no final event: {e}"),
            }
        };
        assert_eq!(outcome, FinalOutcome::Committed, "{name}");
        assert!(
            speculated,
            "{name}: the speculative event came before the final"
        );
        let harvest = db.shutdown();
        let record = harvest.record(handle).expect("harvested");
        assert!(record.outcome.is_commit(), "{name}");
        assert_eq!(harvest.all_records().len(), 1, "{name}");
    }
}

#[test]
fn drop_without_shutdown_does_not_hang() {
    for (name, fabric) in live_fabrics() {
        let mut db = Planet::builder().topology(lan()).seed(6).live(fabric);
        let _ = db.submit(0, PlanetTxn::builder().set("x", 1i64).build());
        let began = Instant::now();
        drop(db);
        assert!(began.elapsed() < Duration::from_secs(5), "{name}");
    }
}
