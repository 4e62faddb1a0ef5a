//! The per-replica key-value store: interned keys addressing versioned
//! records kept in copy-on-write pages, and each record's history beside
//! them.
//!
//! The store keeps two representations of its keyspace: the wire-form
//! [`Key`] (an `Arc<str>`), and a dense [`KeyId`] assigned by a per-store
//! [`KeyInterner`]. The `*_id` methods are the hot path — one page lookup,
//! no hashing — and the [`Key`]-addressed methods are boundary conveniences
//! that resolve the id first. A replica handling a message resolves each
//! key once and runs the whole validate/log/accept sequence on the id.
//!
//! Maintenance costs what changed, not what is stored. Records (and the
//! interner's names) live in pages of [`PAGE_LEN`]: [`Store::snapshot`]
//! freezes the pages behind `Arc`s it shares with the snapshot, the first
//! write to a page afterwards copies that page once, and a page that is
//! never written again is never copied. A record in a page is its head
//! version and its pending options — all that reads, validation, a snapshot
//! and a recovery need — so copying a page copies 64 heads and no chain.
//! The versions a head replaced are the record's history: a vector per key,
//! indexed by [`KeyId`] beside the pages, owned by the live store alone. A
//! snapshot does not hold it, so a recovered record's chain starts at its
//! checkpointed head. [`Store::gc`] trims the histories of the keys on the
//! pages written since the previous sweep, in place, writing no page.

use crate::intern::KeyInterner;
use crate::options::{RecordOption, RejectReason};
use crate::paged::{PagedVec, PAGE_LEN};
use crate::record::{CommittedVersion, VersionedRecord};
use crate::types::{Key, KeyId, TxnId, Value, VersionNo};

/// The result of a read: the committed version and its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadResult {
    /// Committed version number (0 for never-written keys).
    pub version: VersionNo,
    /// The committed value.
    pub value: Value,
    /// How many options are pending on the record — the likelihood model
    /// uses this as a contention signal.
    pub pending: usize,
}

impl ReadResult {
    fn absent() -> Self {
        ReadResult {
            version: 0,
            value: Value::None,
            pending: 0,
        }
    }
}

/// The record pages written since the previous [`Store::gc`] sweep.
#[derive(Debug, Default, Clone)]
struct WrittenPages {
    /// Per page: is it in `list`?
    marked: Vec<bool>,
    list: Vec<u32>,
}

impl WrittenPages {
    fn mark(&mut self, page: usize) {
        if self.marked.len() <= page {
            self.marked.resize(page + 1, false);
        }
        if let Some(marked) = self.marked.get_mut(page) {
            if !*marked {
                *marked = true;
                self.list.push(page as u32);
            }
        }
    }

    /// Take the marked pages, leaving none marked.
    fn take(&mut self) -> Vec<u32> {
        let list = std::mem::take(&mut self.list);
        for &page in &list {
            if let Some(marked) = self.marked.get_mut(page as usize) {
                *marked = false;
            }
        }
        list
    }
}

/// A point-in-time image of a [`Store`], as [`Wal::checkpoint`] persists it:
/// every key's head version and pending options.
///
/// It holds the same pages as the store it was taken from: taking one is
/// O(pages) pointer copies, and cloning one (a crash-restart clones the
/// log) costs the same. It holds neither the records' histories nor the
/// key → id map; [`Store::from_snapshot`] rebuilds the map.
///
/// [`Wal::checkpoint`]: crate::Wal::checkpoint
#[derive(Debug, Default, Clone)]
pub struct StoreSnapshot {
    names: PagedVec<Key>,
    records: PagedVec<VersionedRecord>,
}

/// An in-memory store of versioned records with interned keys.
#[derive(Debug, Default)]
pub struct Store {
    interner: KeyInterner,
    /// Indexed by [`KeyId`]; always the same length as the interner.
    records: PagedVec<VersionedRecord>,
    /// Per key, the committed versions its head replaced, oldest first.
    /// Indexed by [`KeyId`] like `records` and as long, outside the pages:
    /// no snapshot holds it and no page copy copies it. 24 bytes a key; a
    /// key written at most once never allocates here.
    history: Vec<Vec<CommittedVersion>>,
    written: WrittenPages,
}

/// The deep copy: every record and history cloned, no page shared with the
/// original, O(store). Nothing outside tests calls it — a checkpoint takes
/// a [`Store::snapshot`] — it stays as the reference model the checkpoint
/// tests compare against.
impl Clone for Store {
    fn clone(&self) -> Self {
        Store {
            interner: self.interner.clone(),
            records: self.records.deep_clone(),
            history: self.history.clone(),
            written: self.written.clone(),
        }
    }
}

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- snapshots -----------------------------------------------------

    /// A point-in-time image sharing every page with the live store:
    /// O(pages), no record is copied. Later writes never show through it.
    /// (`&mut` because the pages written since the last snapshot are frozen
    /// in place; nothing a reader can see changes.)
    pub fn snapshot(&mut self) -> StoreSnapshot {
        StoreSnapshot {
            names: self.interner.names_snapshot(),
            records: self.records.snapshot(),
        }
    }

    /// A store that continues from `snapshot`, sharing its pages until it
    /// writes to them. Every record's chain restarts at its snapshot head,
    /// with an empty history. Rebuilding the key → id map hashes every key
    /// once: the one O(keys) step, paid at recovery and not at checkpoint.
    pub fn from_snapshot(snapshot: &StoreSnapshot) -> Self {
        Store {
            interner: KeyInterner::from_names(snapshot.names.clone()),
            records: snapshot.records.clone(),
            history: vec![Vec::new(); snapshot.records.len()],
            written: WrittenPages::default(),
        }
    }

    // ---- key interning -------------------------------------------------

    /// Intern `key`, creating its (empty) record slot on first sight. This
    /// is the one place the hot path pays a string hash; everything after
    /// runs on the returned id.
    pub fn intern(&mut self, key: &Key) -> KeyId {
        let id = self.interner.intern(key);
        if self.records.len() <= id.0 as usize {
            self.records.push(VersionedRecord::new());
            self.history.push(Vec::new());
        }
        id
    }

    /// The id of an already-interned key, if any.
    pub fn key_id(&self, key: &Key) -> Option<KeyId> {
        self.interner.get(key)
    }

    /// The key an id stands for.
    pub fn key_name(&self, id: KeyId) -> &Key {
        self.interner.name(id)
    }

    // ---- id-addressed hot path -----------------------------------------

    /// Direct access to a record by id.
    ///
    /// # Panics
    /// If `id` was not issued by this store's [`Store::intern`].
    pub fn record_id(&self, id: KeyId) -> &VersionedRecord {
        let record = self.records.get(id.0 as usize);
        // Ids are issued only by `intern`, which created the slot, and never
        // cross the wire.
        // check:allow(panic)
        record.expect("key id issued by this store")
    }

    /// The one way to a record that is about to be written, with the
    /// history its replaced heads go to: marks its page for the next sweep
    /// and un-shares it from the last snapshot.
    fn record_id_mut(&mut self, id: KeyId) -> (&mut VersionedRecord, &mut Vec<CommittedVersion>) {
        let index = id.0 as usize;
        self.written.mark(index / PAGE_LEN);
        let record = self.records.get_mut(index);
        let history = self.history.get_mut(index);
        // As in `record_id`.
        // check:allow(panic)
        record.zip(history).expect("key id issued by this store")
    }

    /// Read the latest committed state by id.
    pub fn read_id(&self, id: KeyId) -> ReadResult {
        let r = self.record_id(id);
        ReadResult {
            version: r.current_version(),
            value: r.current_value().clone(),
            pending: r.pending_count(),
        }
    }

    /// Validate an option against a record by id without mutating anything.
    pub fn validate_id(&self, id: KeyId, option: &RecordOption) -> Result<(), RejectReason> {
        self.record_id(id).validate(option)
    }

    /// Validate and accept an option by id.
    pub fn accept_id(&mut self, id: KeyId, option: RecordOption) -> Result<(), RejectReason> {
        self.record_id_mut(id).0.accept(option)
    }

    /// Learn a transaction outcome by id; returns the new version if one
    /// was committed.
    pub fn decide_id(&mut self, id: KeyId, txn: TxnId, commit: bool) -> Option<VersionNo> {
        let (record, history) = self.record_id_mut(id);
        record.decide(txn, commit, history)
    }

    /// Install a committed version by state transfer, by id.
    pub fn install_id(&mut self, id: KeyId, version: VersionNo, value: Value, txn: TxnId) -> bool {
        let (record, history) = self.record_id_mut(id);
        record.install(version, value, txn, history)
    }

    // ---- key-addressed boundary API ------------------------------------

    /// Read the latest committed state of a key. Never fails: unknown keys
    /// read as version 0, `Value::None`.
    pub fn read(&self, key: &Key) -> ReadResult {
        match self.key_id(key) {
            Some(id) => self.read_id(id),
            None => ReadResult::absent(),
        }
    }

    /// Validate an option without mutating anything.
    pub fn validate(&self, key: &Key, option: &RecordOption) -> Result<(), RejectReason> {
        match self.key_id(key) {
            Some(id) => self.validate_id(id, option),
            None => VersionedRecord::new().validate(option),
        }
    }

    /// Validate and accept an option on a key.
    pub fn accept(&mut self, key: &Key, option: RecordOption) -> Result<(), RejectReason> {
        let id = self.intern(key);
        self.accept_id(id, option)
    }

    /// Learn a transaction outcome on a key; returns the new version if one
    /// was committed.
    pub fn decide(&mut self, key: &Key, txn: TxnId, commit: bool) -> Option<VersionNo> {
        self.key_id(key)
            .and_then(|id| self.decide_id(id, txn, commit))
    }

    /// Install a committed version by state transfer; see
    /// [`VersionedRecord::install`].
    pub fn install(&mut self, key: &Key, version: VersionNo, value: Value, txn: TxnId) -> bool {
        let id = self.intern(key);
        self.install_id(id, version, value, txn)
    }

    /// Direct access to a record (e.g. pending inspection), if its key has
    /// been interned.
    pub fn record(&self, key: &Key) -> Option<&VersionedRecord> {
        self.key_id(key).map(|id| self.record_id(id))
    }

    /// The committed versions the store retains for a key, oldest first:
    /// its history, then its head (none for a key never written). What the
    /// model checker compares across replicas. After a recovery the chain
    /// starts at the head the checkpoint held.
    pub fn versions(&self, key: &Key) -> impl Iterator<Item = &CommittedVersion> + '_ {
        self.key_id(key).into_iter().flat_map(|id| {
            let history = self
                .history
                .get(id.0 as usize)
                .map_or(&[][..], Vec::as_slice);
            history.iter().chain(self.record_id(id).head())
        })
    }

    // ---- whole-store traversal -----------------------------------------

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.interner.len()
    }

    /// True if no record exists.
    pub fn is_empty(&self) -> bool {
        self.interner.is_empty()
    }

    /// Iterate keys in sorted order (deterministic regardless of the order
    /// keys arrived in).
    pub fn keys(&self) -> impl Iterator<Item = &Key> {
        self.interner.keys_sorted().into_iter()
    }

    /// Every pending option, with the id of the record it is pending on,
    /// in id order.
    pub fn pending_options(&self) -> impl Iterator<Item = (KeyId, &RecordOption)> + '_ {
        self.records.iter().enumerate().flat_map(|(id, r)| {
            let id = KeyId(id as u32);
            r.pending().iter().map(move |o| (id, o))
        })
    }

    /// Garbage-collect version chains, keeping the newest `keep` versions of
    /// each record, its head among them (a head is never dropped: `keep` 0
    /// keeps it alone, as 1 does). A history only grows when its record is
    /// written, so the sweep visits the keys of the pages written since the
    /// previous sweep and no other; returns how many pages that was. It
    /// trims the histories beside the pages and writes no page, so it
    /// un-shares none from a snapshot and allocates nothing. A sweep with a
    /// smaller `keep` than the one before does not revisit what that one
    /// trimmed.
    pub fn gc(&mut self, keep: usize) -> usize {
        let older = keep.saturating_sub(1);
        let pages = self.written.take();
        for &page in &pages {
            let first = page as usize * PAGE_LEN;
            for history in self.history.iter_mut().skip(first).take(PAGE_LEN) {
                history.drain(..history.len().saturating_sub(older));
            }
        }
        pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::WriteOp;

    fn txn(n: u64) -> TxnId {
        TxnId::new(1, n)
    }

    #[test]
    fn read_unknown_key() {
        let s = Store::new();
        let r = s.read(&Key::new("missing"));
        assert_eq!(r.version, 0);
        assert_eq!(r.value, Value::None);
        assert_eq!(r.pending, 0);
        assert!(s.is_empty());
    }

    #[test]
    fn accept_decide_read_cycle() {
        let mut s = Store::new();
        let k = Key::new("a");
        s.accept(
            &k,
            RecordOption::new(txn(1), 0, WriteOp::Set(Value::Int(7))),
        )
        .unwrap();
        assert_eq!(s.read(&k).pending, 1);
        assert_eq!(s.decide(&k, txn(1), true), Some(1));
        let r = s.read(&k);
        assert_eq!(r.version, 1);
        assert_eq!(r.value, Value::Int(7));
        assert_eq!(r.pending, 0);
    }

    #[test]
    fn id_path_matches_key_path() {
        let mut s = Store::new();
        let k = Key::new("a");
        let id = s.intern(&k);
        assert_eq!(s.intern(&k), id, "intern is idempotent");
        assert_eq!(s.key_id(&k), Some(id));
        assert_eq!(s.key_name(id), &k);
        s.accept_id(
            id,
            RecordOption::new(txn(1), 0, WriteOp::Set(Value::Int(7))),
        )
        .unwrap();
        assert_eq!(s.decide_id(id, txn(1), true), Some(1));
        assert_eq!(s.read_id(id), s.read(&k));
        assert_eq!(s.versions(&k).count(), 1);
    }

    #[test]
    fn validate_does_not_mutate() {
        let s = Store::new();
        let k = Key::new("a");
        let opt = RecordOption::new(txn(1), 0, WriteOp::Set(Value::Int(1)));
        s.validate(&k, &opt).unwrap();
        assert!(s.is_empty());
        // Validation against a missing record behaves like an empty record:
        // stale expected version is caught.
        let stale = RecordOption::new(txn(1), 5, WriteOp::Set(Value::Int(1)));
        assert!(s.validate(&k, &stale).is_err());
    }

    #[test]
    fn decide_on_unknown_key_is_noop() {
        let mut s = Store::new();
        assert_eq!(s.decide(&Key::new("nope"), txn(1), true), None);
    }

    #[test]
    fn pending_options_name_their_records() {
        let mut s = Store::new();
        for (i, k) in ["a", "b", "c"].iter().enumerate() {
            s.accept(
                &Key::new(*k),
                RecordOption::new(txn(i as u64), 0, WriteOp::add(1)),
            )
            .unwrap();
        }
        s.accept(
            &Key::new("a"),
            RecordOption::new(txn(3), 0, WriteOp::add(1)),
        )
        .unwrap();
        let pending: Vec<(KeyId, TxnId)> = s.pending_options().map(|(id, o)| (id, o.txn)).collect();
        let expected = [(0, 0), (0, 3), (1, 1), (2, 2)].map(|(id, t)| (KeyId(id), txn(t)));
        assert_eq!(pending, expected);
        assert_eq!(s.len(), 3);
        assert_eq!(s.keys().count(), 3);
    }

    #[test]
    fn keys_iterate_sorted_not_in_arrival_order() {
        let mut s = Store::new();
        for k in ["z", "a", "m"] {
            s.accept(&Key::new(k), RecordOption::new(txn(1), 0, WriteOp::add(1)))
                .unwrap();
        }
        let order: Vec<&str> = s.keys().map(|k| k.as_str()).collect();
        assert_eq!(order, vec!["a", "m", "z"]);
    }

    #[test]
    fn snapshot_clone_is_independent() {
        let mut s = Store::new();
        let k = Key::new("a");
        s.accept(
            &k,
            RecordOption::new(txn(1), 0, WriteOp::Set(Value::Int(1))),
        )
        .unwrap();
        s.decide(&k, txn(1), true);
        let deep = s.clone();
        assert_eq!(s.records.shared_pages(&deep.records), 0);
        let snap = s.snapshot();
        s.accept(&k, RecordOption::new(txn(2), 1, WriteOp::add(5)))
            .unwrap();
        s.decide(&k, txn(2), true);
        assert_eq!(s.read(&k).value, Value::Int(6));
        assert_eq!(deep.read(&k).value, Value::Int(1), "deep copy unaffected");
        let recovered = Store::from_snapshot(&snap);
        assert_eq!(
            recovered.read(&k).value,
            Value::Int(1),
            "snapshot unaffected"
        );
    }

    fn commit_set(s: &mut Store, id: KeyId, seq: u64, value: i64) {
        let version = s.read_id(id).version;
        let opt = RecordOption::new(txn(seq), version, WriteOp::Set(Value::Int(value)));
        s.accept_id(id, opt).unwrap();
        s.decide_id(id, txn(seq), true);
    }

    /// A store of `pages` full pages, every key committed once at value 0.
    fn paged_store(pages: usize) -> (Store, Vec<KeyId>) {
        let mut s = Store::new();
        let ids: Vec<KeyId> = (0..pages * PAGE_LEN)
            .map(|i| s.intern(&Key::new(format!("k{i}"))))
            .collect();
        for (seq, &id) in ids.iter().enumerate() {
            commit_set(&mut s, id, seq as u64, 0);
        }
        (s, ids)
    }

    #[test]
    fn snapshot_shares_pages_until_they_are_written() {
        let (mut s, ids) = paged_store(4);
        let snap = s.snapshot();
        assert_eq!(s.records.shared_pages(&snap.records), 4);
        // One write: one page copied, and the snapshot does not see it.
        let victim = ids[PAGE_LEN + 3];
        commit_set(&mut s, victim, 10_000, 7);
        assert_eq!(s.records.shared_pages(&snap.records), 3);
        let recovered = Store::from_snapshot(&snap);
        assert_eq!(recovered.read_id(victim).value, Value::Int(0));
        assert_eq!(s.read_id(victim).value, Value::Int(7));
        // A new key opens a page the snapshot never had; ids carry over.
        let fresh = s.intern(&Key::new("fresh"));
        assert_eq!(fresh, KeyId((4 * PAGE_LEN) as u32));
        assert_eq!(recovered.len(), 4 * PAGE_LEN);
        assert_eq!(recovered.key_id(&Key::new("fresh")), None);
        assert_eq!(recovered.key_id(&Key::new("k70")), Some(KeyId(70)));
        assert_eq!(recovered.key_name(KeyId(70)), &Key::new("k70"));
        // The recovered store shares the snapshot's pages too, and its own
        // writes stay its own.
        let mut recovered = recovered;
        assert_eq!(recovered.records.shared_pages(&snap.records), 4);
        commit_set(&mut recovered, ids[0], 10_001, 9);
        assert_eq!(s.read_id(ids[0]).value, Value::Int(0));
        assert_eq!(
            Store::from_snapshot(&snap).read_id(ids[0]).value,
            Value::Int(0)
        );
    }

    #[test]
    fn gc_visits_only_pages_written_since_the_last_sweep() {
        let (mut s, ids) = paged_store(4);
        assert_eq!(s.gc(1), 4, "every page was written by the preload");
        assert_eq!(s.gc(1), 0, "nothing written since");
        let (hot, hot_key) = (ids[2 * PAGE_LEN], Key::new(format!("k{}", 2 * PAGE_LEN)));
        for seq in 0..3 {
            commit_set(&mut s, hot, 20_000 + seq, seq as i64);
        }
        // A pending option alone marks its page as well.
        let pending = RecordOption::new(txn(30_000), 0, WriteOp::add(1));
        s.accept_id(ids[5], pending).unwrap();
        let chain =
            |s: &Store| -> Vec<VersionNo> { s.versions(&hot_key).map(|v| v.version).collect() };
        assert_eq!(chain(&s), vec![1, 2, 3, 4]);
        // The snapshot holds heads, not histories: a recovered chain starts
        // at the head.
        let snap = s.snapshot();
        let mut recovered = Store::from_snapshot(&snap);
        assert_eq!(chain(&recovered), vec![4]);
        assert_eq!(recovered.read_id(hot), s.read_id(hot));
        assert_eq!(recovered.gc(1), 0, "nothing written since the recovery");
        // The sweep trims beside the pages and writes none of them.
        assert_eq!(s.gc(2), 2);
        assert_eq!(chain(&s), vec![3, 4]);
        assert_eq!(s.read_id(hot).value, Value::Int(2));
        assert_eq!(s.records.shared_pages(&snap.records), 4);
        assert_eq!(s.gc(1), 0, "a sweep marks nothing written");
    }

    #[test]
    fn gc_applies_to_all_records() {
        let mut s = Store::new();
        let k = Key::new("a");
        for v in 1..=5u64 {
            s.accept(
                &k,
                RecordOption::new(txn(v), v - 1, WriteOp::Set(Value::Int(v as i64))),
            )
            .unwrap();
            s.decide(&k, txn(v), true);
        }
        s.gc(2);
        let kept: Vec<VersionNo> = s.versions(&k).map(|v| v.version).collect();
        assert_eq!(kept, vec![4, 5]);
        assert_eq!(s.read(&k).value, Value::Int(5));
        // Written again (a pending option marks its page) and swept with
        // `keep` 0: the head stays.
        s.accept(&k, RecordOption::new(txn(9), 5, WriteOp::add(1)))
            .unwrap();
        s.gc(0);
        assert_eq!(s.versions(&k).count(), 1);
        assert_eq!(s.read(&k).version, 5);
    }
}
