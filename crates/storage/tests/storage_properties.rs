//! Property-based tests for the storage engine's core invariants:
//!
//! 1. WAL replay reproduces the live store exactly, for any operation mix.
//! 2. Demarcation bounds are never violated by any interleaving of accepted
//!    commutative options.
//! 3. Version numbers increase by exactly one per commit and values follow
//!    the applied operations.
//!
//! The cases are generated from a seeded [`DetRng`] rather than an external
//! property-testing framework (the repo builds fully offline); each test
//! drives a fixed number of random scripts, and a failing case prints the
//! seed that reproduces it.

use std::collections::VecDeque;
use std::fmt::Display;

use planet_sim::DetRng;
use planet_storage::{
    CommittedVersion, Key, KeyId, RecordOption, Replica, Store, TxnId, Value, VersionedRecord, Wal,
    WriteOp,
};

/// A randomly generated action against a replica.
#[derive(Debug, Clone)]
enum Action {
    ProposeSet { key: u8, value: i64 },
    ProposeAdd { key: u8, delta: i64 },
    DecideOldest { key: u8, commit: bool },
}

fn random_action(rng: &mut DetRng) -> Action {
    match rng.index(3) {
        0 => Action::ProposeSet {
            key: rng.range_u64(0, 6) as u8,
            value: rng.range_u64(0, 100) as i64 - 50,
        },
        1 => Action::ProposeAdd {
            key: rng.range_u64(0, 6) as u8,
            delta: rng.range_u64(0, 40) as i64 - 20,
        },
        _ => Action::DecideOldest {
            key: rng.range_u64(0, 6) as u8,
            commit: rng.bernoulli(0.5),
        },
    }
}

fn random_script(rng: &mut DetRng) -> Vec<Action> {
    let len = rng.index(199) + 1; // 1..200
    (0..len).map(|_| random_action(rng)).collect()
}

const CASES: u64 = 128;

/// Scripts for the maintenance test, whose every step replays the log of
/// every checkpoint taken so far.
const MAINTENANCE_CASES: u64 = 40;

fn key(k: u8) -> Key {
    Key::new(format!("k{k}"))
}

const FLOOR: i64 = -100;
const CEIL: i64 = 100;

/// Drive a replica through a script. Physical proposals read the current
/// version first (as a real coordinator would); adds carry demarcation
/// bounds [FLOOR, CEIL].
fn run_script(actions: &[Action]) -> Replica {
    let mut replica = Replica::new();
    let mut next_txn = 0u64;
    // Pending txns per key in acceptance order, so DecideOldest is meaningful.
    let mut pending: std::collections::HashMap<u8, Vec<TxnId>> = Default::default();

    for action in actions {
        match action {
            Action::ProposeSet { key: k, value } => {
                let read = replica.read(&key(*k));
                let txn = TxnId::new(0, next_txn);
                next_txn += 1;
                let opt = RecordOption::new(txn, read.version, WriteOp::Set(Value::Int(*value)));
                if replica.accept(&key(*k), opt).is_ok() {
                    pending.entry(*k).or_default().push(txn);
                } else {
                    replica.note_rejection();
                }
            }
            Action::ProposeAdd { key: k, delta } => {
                let txn = TxnId::new(0, next_txn);
                next_txn += 1;
                let opt = RecordOption::new(
                    txn,
                    0,
                    WriteOp::Add {
                        delta: *delta,
                        lower: Some(FLOOR),
                        upper: Some(CEIL),
                    },
                );
                if replica.accept(&key(*k), opt).is_ok() {
                    pending.entry(*k).or_default().push(txn);
                } else {
                    replica.note_rejection();
                }
            }
            Action::DecideOldest { key: k, commit } => {
                if let Some(q) = pending.get_mut(k) {
                    if !q.is_empty() {
                        let txn = q.remove(0);
                        replica.decide(&key(*k), txn, *commit);
                    }
                }
            }
        }
    }
    replica
}

/// Replaying the WAL always reproduces the live store.
#[test]
fn wal_replay_matches_live_state() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x57A7_0000 + case);
        let actions = random_script(&mut rng);
        let replica = run_script(&actions);
        assert!(replica.verify_recovery().is_empty(), "case {case}");
        // And a recovered replica serves identical reads.
        let recovered = Replica::recover(replica.wal().clone());
        for k in 0u8..6 {
            assert_eq!(
                recovered.read(&key(k)),
                replica.read(&key(k)),
                "case {case} key k{k}"
            );
        }
    }
}

/// One step of a maintenance script: the operation stream of a replica with
/// checkpoints at random points in it.
#[derive(Debug, Clone)]
enum Step {
    /// Accept a physical write based on the current version; stays pending.
    Set {
        key: usize,
        value: i64,
    },
    /// Accept a bounded delta; stays pending.
    Add {
        key: usize,
        delta: i64,
    },
    /// Decide the oldest undecided transaction.
    Decide {
        commit: bool,
    },
    /// State transfer: jump the key `ahead` versions forward.
    Install {
        key: usize,
        ahead: u64,
        value: i64,
    },
    /// First sight of a key, installed at version 1 (every 64th opens a
    /// fresh page).
    NewKey,
    Checkpoint,
}

fn random_step(rng: &mut DetRng, keys: usize) -> Step {
    let key = rng.index(keys);
    match rng.index(100) {
        0..=15 => Step::Set {
            key,
            value: rng.range_u64(0, 100) as i64 - 50,
        },
        16..=42 => Step::Add {
            key,
            delta: rng.range_u64(0, 40) as i64 - 20,
        },
        43..=74 => Step::Decide {
            commit: rng.bernoulli(0.7),
        },
        75..=80 => Step::Install {
            key,
            ahead: rng.range_u64(1, 4),
            value: rng.range_u64(0, 100) as i64,
        },
        81..=90 => Step::NewKey,
        _ => Step::Checkpoint,
    }
}

/// The store as it was before it had pages: one record per key in a plain
/// vector, and beside each the chain of versions it went through since the
/// last checkpoint (which restarts every chain at its head).
#[derive(Default)]
struct ModelStore {
    keys: Vec<Key>,
    records: Vec<VersionedRecord>,
    chains: Vec<Vec<CommittedVersion>>,
}

impl ModelStore {
    fn new_key(&mut self, key: Key) {
        self.keys.push(key);
        self.records.push(VersionedRecord::new());
        self.chains.push(Vec::new());
    }

    /// Apply `write` to a key's record; a head it produces joins the chain.
    fn write<T>(&mut self, key: usize, write: impl FnOnce(&mut VersionedRecord) -> T) -> T {
        let record = &mut self.records[key];
        let before = record.head().cloned();
        let out = write(record);
        if record.head() != before.as_ref() {
            self.chains[key].extend(record.head().cloned());
        }
        out
    }

    fn checkpoint(&mut self) {
        for (record, chain) in self.records.iter().zip(&mut self.chains) {
            chain.clear();
            chain.extend(record.head().cloned());
        }
    }
}

/// Key id, head, pending set and version chain of every key agree.
fn assert_same_state(replica: &Replica, model: &ModelStore, what: &str) {
    let store = replica.store();
    assert_eq!(store.len(), model.keys.len(), "{what}: key count");
    for (id, (key, expected)) in model.keys.iter().zip(&model.records).enumerate() {
        assert_eq!(
            store.key_id(key),
            Some(KeyId(id as u32)),
            "{what}: id of {key}"
        );
        let got = store.record(key).expect("interned");
        assert_eq!(got.head(), expected.head(), "{what}: head of {key}");
        assert_eq!(
            got.pending(),
            expected.pending(),
            "{what}: pending of {key}"
        );
        assert_eq!(
            replica.versions(key),
            model.chains[id],
            "{what}: chain of {key}"
        );
    }
}

/// What a recovery must reproduce: head version, value, pending set and key
/// id of every key, and no key more.
fn assert_recovers(recovered: &Store, live: &Store, what: &dyn Display) {
    assert_eq!(recovered.len(), live.len(), "{what}: key count");
    for key in live.keys() {
        assert_eq!(
            recovered.key_id(key),
            live.key_id(key),
            "{what}: id of {key}"
        );
        assert_eq!(recovered.read(key), live.read(key), "{what}: head of {key}");
        let (got, want) = (recovered.record(key), live.record(key));
        let pending = |r: Option<&VersionedRecord>| r.map(|r| r.pending().to_vec());
        assert_eq!(pending(got), pending(want), "{what}: pending of {key}");
    }
}

/// Differential test of the paged store's maintenance. A replica runs a
/// random script — accepts left pending across checkpoints, commits, aborts,
/// installs, new keys that open fresh pages — with many checkpoints at
/// random points, each recycling the pages of the snapshot it replaces.
/// After every step:
///
/// * the live replica equals [`ModelStore`] key by key (id, head, pending,
///   and the chain `Replica::versions` reads back from the log);
/// * `Replica::recover(wal.clone())` and `verify_recovery()` agree with the
///   live store on version, value, pending set and key ids, and the
///   recovered replica reads the same chains;
/// * every earlier checkpoint, replayed from a log cloned when it was taken,
///   still equals the deep `Store::clone` made at that moment: a write after
///   a checkpoint never shows through the older snapshot, even once the
///   live log has recycled that snapshot's pages. Its chains are its heads.
///
/// Five seeded mutations of the store were each checked to fail this test
/// (CHANGES.md, PR 16).
#[test]
fn recovery_holds_across_random_checkpoints() {
    for case in 0..MAINTENANCE_CASES {
        let mut rng = DetRng::new(0x57A7_3000 + case);
        let mut replica = Replica::new();
        let mut model = ModelStore::default();
        // Start just short of a page boundary so new keys cross it.
        let initial = [60, 63, 120, 127][rng.index(4)];
        // A key's first sight is a logged write, as in the replica actor:
        // recovery re-issues ids in log order, and the ids must carry over.
        let new_key = |replica: &mut Replica, model: &mut ModelStore| {
            let k = model.keys.len();
            let key = Key::new(format!("k{k}"));
            let by = TxnId::new(9, k as u64);
            assert!(replica.install(&key, 1, Value::Int(0), by));
            model.new_key(key);
            assert!(model.write(k, |record| record.install(1, Value::Int(0), by)));
        };
        for _ in 0..initial {
            new_key(&mut replica, &mut model);
        }
        let mut undecided: VecDeque<(usize, TxnId)> = VecDeque::new();
        // (log as of the checkpoint, deep copy of the store at that moment)
        let mut checkpoints: Vec<(Wal, Store)> = Vec::new();

        let steps = rng.index(200) + 50;
        for step_no in 0..steps {
            let step = random_step(&mut rng, model.keys.len());
            let what = format!("case {case} step {step_no} {step:?}");
            let mut propose =
                |replica: &mut Replica, model: &mut ModelStore, k, opt: RecordOption| {
                    let live = replica.accept(&model.keys[k], opt.clone());
                    assert_eq!(live, model.write(k, |r| r.accept(opt.clone())), "{what}");
                    if live.is_ok() {
                        undecided.push_back((k, opt.txn));
                    }
                };
            let txn = TxnId::new(0, step_no as u64);
            match step {
                Step::Set { key: k, value } => {
                    let version = replica.read(&model.keys[k]).version;
                    let opt = RecordOption::new(txn, version, WriteOp::Set(Value::Int(value)));
                    propose(&mut replica, &mut model, k, opt);
                }
                Step::Add { key: k, delta } => {
                    let op = WriteOp::Add {
                        delta,
                        lower: Some(FLOOR),
                        upper: Some(CEIL),
                    };
                    propose(&mut replica, &mut model, k, RecordOption::new(txn, 0, op));
                }
                Step::Decide { commit } => {
                    if let Some((k, txn)) = undecided.pop_front() {
                        let live = replica.decide(&model.keys[k], txn, commit);
                        assert_eq!(live, model.write(k, |r| r.decide(txn, commit)), "{what}");
                    }
                }
                Step::Install {
                    key: k,
                    ahead,
                    value,
                } => {
                    let version = replica.read(&model.keys[k]).version + ahead;
                    let value = Value::Int(value);
                    let live = replica.install(&model.keys[k], version, value.clone(), txn);
                    let modelled = model.write(k, |r| r.install(version, value, txn));
                    assert_eq!(live, modelled, "{what}");
                }
                Step::NewKey => new_key(&mut replica, &mut model),
                Step::Checkpoint => {
                    replica.checkpoint();
                    model.checkpoint();
                    assert_eq!(replica.wal().len(), 0, "{what}");
                    checkpoints.push((replica.wal().clone(), replica.store().clone()));
                }
            }

            assert_same_state(&replica, &model, &what);
            assert!(replica.verify_recovery().is_empty(), "{what}");
            let recovered = Replica::recover(replica.wal().clone());
            assert_recovers(recovered.store(), replica.store(), &what);
            assert_same_state(&recovered, &model, &format!("{what}: recovered"));
            for (n, (log, then)) in checkpoints.iter().enumerate() {
                let what = format_args!("{what}: checkpoint {n} replayed");
                let replayed = Replica::recover(log.clone());
                assert_recovers(replayed.store(), then, &what);
                for key in then.keys() {
                    let head = then.record(key).and_then(VersionedRecord::head);
                    let heads = head.cloned().into_iter().collect::<Vec<_>>();
                    assert_eq!(replayed.versions(key), heads, "{what}: chain of {key}");
                }
            }
        }
    }
}

/// No committed integer value ever escapes the demarcation bounds that
/// every Add option carried — regardless of which subset of options
/// commits. (Sets can place the value anywhere, so only check keys whose
/// history is purely adds; the script encodes that by checking the final
/// value when no Set ever committed on the key.)
#[test]
fn demarcation_bounds_hold() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x57A7_1000 + case);
        let actions = random_script(&mut rng);
        // Filter the script to adds + decides so bounds are the only writes.
        let adds_only: Vec<Action> = actions
            .into_iter()
            .filter(|a| !matches!(a, Action::ProposeSet { .. }))
            .collect();
        let replica = run_script(&adds_only);
        for k in 0u8..6 {
            let r = replica.read(&key(k));
            if let Value::Int(v) = r.value {
                assert!(
                    (FLOOR..=CEIL).contains(&v),
                    "case {case}: key k{k} committed value {v} outside [{FLOOR}, {CEIL}]"
                );
            }
        }
    }
}

/// Version numbers count commits exactly: the final version of each key
/// equals the number of committed decisions applied to it.
#[test]
fn versions_count_commits() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x57A7_2000 + case);
        let actions = random_script(&mut rng);
        let replica = run_script(&actions);
        for k in 0u8..6 {
            let kk = key(k);
            let commits = replica
                .wal()
                .records()
                .iter()
                .filter(|rec| match rec {
                    planet_storage::LogRecord::Decided { key, commit, .. } => *commit && key == &kk,
                    _ => false,
                })
                .count() as u64;
            assert_eq!(replica.read(&kk).version, commits, "case {case} key k{k}");
        }
    }
}

/// A rejected acceptance must leave no trace in the WAL. (Regression: the
/// accept path used to append `OptionAccepted` *before* handing the option
/// to the store, relying on a pre-validation followed by an
/// `expect("accept after successful validate cannot fail")` — a rejection
/// slipping between the two would have panicked the replica actor, and any
/// early-logged acceptance would survive into recovery as a ghost entry.)
#[test]
fn rejected_accept_leaves_wal_unchanged() {
    let mut replica = Replica::new();
    let k = key(0);

    // Commit one Set so the key's version moves to 1.
    let t0 = TxnId::new(0, 0);
    let read = replica.read(&k);
    replica
        .accept(
            &k,
            RecordOption::new(t0, read.version, WriteOp::Set(Value::Int(7))),
        )
        .expect("first accept");
    replica.decide(&k, t0, true);
    let wal_len = replica.wal().len();

    // A stale-version Set must be rejected — and must not touch the log.
    let stale = RecordOption::new(TxnId::new(0, 1), 0, WriteOp::Set(Value::Int(9)));
    assert!(replica.accept(&k, stale).is_err(), "stale accept must fail");
    assert_eq!(
        replica.wal().len(),
        wal_len,
        "rejected accept appended to the WAL"
    );

    // Recovery still reproduces the live store exactly.
    assert!(replica.verify_recovery().is_empty());
    let recovered = Replica::recover(replica.wal().clone());
    assert_eq!(recovered.read(&k).value, replica.read(&k).value);
    assert_eq!(recovered.read(&k).version, replica.read(&k).version);
}
