//! The per-replica key-value store: interned keys addressing versioned
//! records kept in copy-on-write pages.
//!
//! The store keeps two representations of its keyspace: the wire-form
//! [`Key`] (a value: inline up to 23 bytes, else an `Arc<str>`), and a dense
//! [`KeyId`] assigned by a per-store [`KeyInterner`]. The `*_id` methods are
//! the hot path — one page lookup, no hashing — and the [`Key`]-addressed
//! methods are boundary conveniences that resolve the id first. A replica
//! handling a message resolves each key once and runs the whole
//! validate/log/accept sequence on the id.
//!
//! Maintenance costs what changed, not what is stored. Records (and the
//! interner's names) live in pages of [`PAGE_LEN`](crate::PAGE_LEN):
//! [`Store::snapshot`] freezes the pages behind `Arc`s it shares with the
//! snapshot, the first write to a page afterwards copies that page once,
//! and a page that is never written again is never copied. A record in a
//! page is its head version and its pending options — all that reads,
//! validation, a snapshot and a recovery need — and nothing older: the
//! versions a head replaced are in the log, not in the store. A snapshot the log no longer needs
//! comes back through `Store::recycle`, and the pages only it held become
//! the `Arc`s and buffers the next snapshot and copies reuse, so once a
//! replica has checkpointed twice, writing a page allocates nothing.

use crate::intern::KeyInterner;
use crate::options::{RecordOption, RejectReason};
use crate::paged::PagedVec;
use crate::record::VersionedRecord;
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

/// A point-in-time image of a [`Store`], as [`Wal::checkpoint`] persists it:
/// every key's head version and pending options.
///
/// It holds the same pages as the store it was taken from: taking one is
/// O(pages) pointer copies, and cloning one (a crash-restart clones the
/// log) costs the same. It does not hold the key → id map;
/// [`Store::from_snapshot`] rebuilds it.
///
/// [`Wal::checkpoint`]: crate::Wal::checkpoint
#[derive(Debug, Default, Clone)]
pub struct StoreSnapshot {
    names: PagedVec<Key>,
    records: PagedVec<VersionedRecord>,
}

impl StoreSnapshot {
    /// The record `key` had when the snapshot was taken, under the id the
    /// store that continues from it gave the key (ids carry over).
    pub(crate) fn record(&self, id: KeyId, key: &Key) -> Option<&VersionedRecord> {
        let index = id.0 as usize;
        if self.names.get(index) != Some(key) {
            return None;
        }
        self.records.get(index)
    }
}

/// An in-memory store of versioned records with interned keys.
#[derive(Debug, Default)]
pub struct Store {
    interner: KeyInterner,
    /// Indexed by [`KeyId`]; always the same length as the interner.
    records: PagedVec<VersionedRecord>,
}

/// The deep copy: every record cloned, no page shared with the original,
/// O(store). Nothing outside tests calls it — a checkpoint takes a
/// [`Store::snapshot`] — it stays as the reference model the checkpoint
/// tests compare against.
impl Clone for Store {
    fn clone(&self) -> Self {
        Store {
            interner: self.interner.clone(),
            records: self.records.deep_clone(),
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

    /// Take back a snapshot nothing else needs (the one a checkpoint
    /// replaces): its pages that neither this store nor a clone of the
    /// snapshot still holds are kept, emptied, for the next snapshot to
    /// freeze pages into and for page copies to copy into. Pages still
    /// shared are just let go.
    pub(crate) fn recycle(&mut self, snapshot: StoreSnapshot) {
        self.interner.recycle_names(snapshot.names);
        self.records.recycle(snapshot.records);
    }

    /// A store that continues from `snapshot`, sharing its pages until it
    /// writes to them. Rebuilding the key → id map hashes every key once:
    /// the one O(keys) step, paid at recovery and not at checkpoint.
    pub fn from_snapshot(snapshot: &StoreSnapshot) -> Self {
        Store {
            interner: KeyInterner::from_names(snapshot.names.clone()),
            records: snapshot.records.clone(),
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

    /// The one way to a record that is about to be written: un-shares its
    /// page from the last snapshot.
    fn record_id_mut(&mut self, id: KeyId) -> &mut VersionedRecord {
        let record = self.records.get_mut(id.0 as usize);
        // As in `record_id`.
        // check:allow(panic)
        record.expect("key id issued by this store")
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
        self.record_id_mut(id).accept(option)
    }

    /// Learn a transaction outcome by id; returns the new version if one
    /// was committed.
    pub fn decide_id(&mut self, id: KeyId, txn: TxnId, commit: bool) -> Option<VersionNo> {
        self.record_id_mut(id).decide(txn, commit)
    }

    /// Install a committed version by state transfer, by id.
    pub fn install_id(&mut self, id: KeyId, version: VersionNo, value: Value, txn: TxnId) -> bool {
        self.record_id_mut(id).install(version, value, txn)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::WriteOp;
    use crate::paged::PAGE_LEN;

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
}
