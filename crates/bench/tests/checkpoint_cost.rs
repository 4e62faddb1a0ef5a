//! A replica's storage maintenance must cost what changed since the last
//! round, not what the store holds, and once warm it allocates nothing: a
//! checkpoint of a 300 000-key replica with 1 000 keys written since the
//! previous one freezes those keys' pages and touches no other, the writes
//! after it copy those pages into the buffers of the snapshot it replaced,
//! and a crash-restart from the checkpoint copies no record at all. Counted
//! in allocations, which repeat exactly where times do not. A record in a
//! page is its head and its pending options, both held inline, so copying a
//! page costs the page and nothing per record.
//!
//! Lives here because this crate owns the counting `#[global_allocator]`.
//! One test, so nothing else in the process allocates on purpose meanwhile;
//! the test harness's own threads may, hence the slack in the bounds.

use planet_bench::alloc_counter::alloc_count;
use planet_storage::{Key, KeyId, RecordOption, Replica, TxnId, Value, WriteOp, PAGE_LEN};

const KEYS: u64 = 300_000;
const DIRTY_KEYS: u64 = 1_000;
/// The written keys are the first ones interned (a hot set loaded first, as
/// in the ticket workload), so they fill whole pages.
const DIRTY_PAGES: u64 = DIRTY_KEYS.div_ceil(PAGE_LEN as u64);
/// What the test harness may allocate on its own threads during a count.
const SLACK: u64 = 32;

fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = alloc_count();
    let out = f();
    (alloc_count() - before, out)
}

/// Accept one `Set` on each of the first `DIRTY_KEYS` keys and decide it:
/// committed, it replaces the head; aborted, it writes the page (which is
/// what un-shares it) and leaves the record as it was.
fn write_hot_set(replica: &mut Replica, round: u64, commit: bool) {
    for k in 0..DIRTY_KEYS {
        let id = KeyId(k as u32);
        let txn = TxnId::new(1, round * DIRTY_KEYS + k);
        let version = replica.read_id(id).version;
        let set = WriteOp::Set(Value::Int(round as i64));
        replica
            .accept_id(id, RecordOption::new(txn, version, set))
            .expect("based on the current version, nothing pending");
        let produced = replica.decide_id(id, txn, commit);
        assert_eq!(produced, commit.then_some(version + 1));
    }
}

/// What a checkpoint costs where it is paid: with every page shared with
/// the snapshot the first write to a page copies it, and the same writes
/// again find their pages unshared. The difference is the copying.
fn allocs_to_unshare(replica: &mut Replica, first_round: u64) -> u64 {
    let (shared, ()) = allocs_during(|| write_hot_set(replica, first_round, false));
    let (unshared, ()) = allocs_during(|| write_hot_set(replica, first_round + 1, false));
    shared.saturating_sub(unshared)
}

/// One maintenance cycle of a running replica: the hot set committed once
/// more, then the checkpoint.
fn allocs_in_a_cycle(replica: &mut Replica, round: u64) -> u64 {
    allocs_during(|| {
        write_hot_set(replica, round, true);
        replica.checkpoint();
    })
    .0
}

#[test]
fn maintenance_costs_what_was_written_not_what_is_stored() {
    let mut replica = Replica::new();
    for k in 0..KEYS {
        let key = Key::new(format!("key:{k}"));
        assert!(replica.install(&key, 1, Value::Int(0), TxnId::new(0, k)));
    }
    replica.checkpoint();

    // No snapshot has come back yet: the first write to a page copies it
    // into a new buffer, one per page and nothing per record.
    let copied = allocs_to_unshare(&mut replica, 1);
    assert!(
        (DIRTY_PAGES..=DIRTY_PAGES + SLACK).contains(&copied),
        "{copied} allocations to un-share {DIRTY_PAGES} pages"
    );

    // The second checkpoint takes back the first snapshot, whose pages the
    // writes above un-shared, and freezes the written pages into them: what
    // is left is two vectors of page pointers.
    let (checkpoint, ()) = allocs_during(|| replica.checkpoint());
    assert!(
        checkpoint <= 4 + SLACK,
        "{checkpoint} allocations in the second checkpoint"
    );
    assert_eq!(replica.wal().len(), 0);

    // From then on a cycle copies each written page into a buffer the
    // replaced snapshot gave back and freezes it into that snapshot's `Arc`.
    for round in 3..6 {
        let cycle = allocs_in_a_cycle(&mut replica, round);
        assert!(
            cycle <= SLACK,
            "{cycle} allocations to re-write {DIRTY_PAGES} pages and checkpoint (round {round})"
        );
    }

    // A crash-restart clones the log and replays it: page pointers and the
    // key -> id map (one table, sized once), no record.
    let (restart, recovered) = allocs_during(|| Replica::recover(replica.wal().clone()));
    assert!(
        restart <= 16 + SLACK,
        "{restart} allocations in the restart"
    );
    assert_eq!(recovered.store().len() as u64, KEYS);
    for k in [0, DIRTY_KEYS - 1, DIRTY_KEYS, KEYS - 1] {
        let key = Key::new(format!("key:{k}"));
        assert_eq!(recovered.read(&key), replica.read(&key), "{key}");
        assert_eq!(recovered.store().key_id(&key), Some(KeyId(k as u32)));
    }

    // While the clone holds the checkpoint, none of its pages comes back:
    // the next cycle un-shares into the last spare buffers but boxes every
    // written page anew, and the one after it copies into new buffers.
    assert!(allocs_in_a_cycle(&mut replica, 6) >= DIRTY_PAGES);
    drop(recovered);
    assert!(allocs_in_a_cycle(&mut replica, 7) >= DIRTY_PAGES);
    let cycle = allocs_in_a_cycle(&mut replica, 8);
    assert!(
        cycle <= SLACK,
        "{cycle} allocations in a cycle once the clone is gone"
    );
    assert!(replica.verify_recovery().is_empty());
}
