//! A replica's storage maintenance must cost what changed since the last
//! round, not what the store holds: a checkpoint of a 300 000-key replica
//! with 1 000 keys written since the previous one copies those keys' pages
//! and nothing else, the sweep before it visits those pages and nothing
//! else, and a crash-restart from the checkpoint copies no record at all.
//! Counted in allocations, which repeat exactly where times do not. A record
//! in a page is its head and its pending options, both held inline; its
//! history lives beside the pages. So un-sharing a page costs the page and
//! nothing per record, whether its records were written once or have
//! history, and the sweep that trims the histories writes no page.
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
/// committed, it adds a version; aborted, it writes the page (which is
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

#[test]
fn maintenance_costs_what_was_written_not_what_is_stored() {
    let mut replica = Replica::new();
    for k in 0..KEYS {
        let key = Key::new(format!("key:{k}"));
        assert!(replica.install(&key, 1, Value::Int(0), TxnId::new(0, k)));
    }
    let pages = KEYS.div_ceil(PAGE_LEN as u64);
    assert_eq!(replica.gc(1) as u64, pages, "the load wrote every page");
    replica.checkpoint();

    // Every record holds the one version it was loaded with, inline: a
    // page of them is copied as one vector, behind the `Arc` the next
    // snapshot freezes it, and nothing per record.
    let copied = allocs_to_unshare(&mut replica, 1);
    assert!(
        copied <= DIRTY_PAGES * 2 + SLACK,
        "{copied} allocations to un-share {DIRTY_PAGES} pages of single-version records"
    );

    // Give the hot set history: three versions a record. The history stays
    // with the live store, so un-sharing costs what it did for records
    // written once.
    write_hot_set(&mut replica, 3, true);
    write_hot_set(&mut replica, 4, true);
    replica.checkpoint();
    let copied = allocs_to_unshare(&mut replica, 5);
    assert!(
        copied <= DIRTY_PAGES * 2 + SLACK,
        "{copied} allocations to un-share {DIRTY_PAGES} pages of multi-version records"
    );

    // The checkpoint itself is two vectors of page pointers.
    let (checkpoint, ()) = allocs_during(|| replica.checkpoint());
    assert!(
        checkpoint <= 4 + SLACK,
        "{checkpoint} allocations in the checkpoint"
    );
    assert_eq!(replica.wal().len(), 0);

    // The sweep visits the written pages and no other, trims the histories
    // in place and writes no page: it allocates nothing, and the pages stay
    // shared with the checkpoint, so the next writes to them pay the copy.
    let (sweep, swept) = allocs_during(|| replica.gc(1));
    assert_eq!(swept as u64, DIRTY_PAGES, "pages swept");
    assert!(sweep <= SLACK, "{sweep} allocations in the sweep");
    assert_eq!(replica.gc(1), 0, "a second sweep finds nothing written");
    let copied = allocs_to_unshare(&mut replica, 7);
    assert!(
        copied >= DIRTY_PAGES,
        "{copied} allocations to un-share {DIRTY_PAGES} pages after the sweep"
    );
    replica.gc(1);
    replica.checkpoint();
    assert_eq!(replica.gc(1), 0, "a checkpoint writes no page");

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
    assert!(replica.verify_recovery().is_empty());
}
