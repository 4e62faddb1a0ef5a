//! A replica: a [`Store`] whose every transition is write-ahead logged.
//!
//! This is the unit the protocol layer instantiates once per site. The
//! invariant — *replaying the WAL yields exactly the live store* — is checked
//! by [`Replica::verify_recovery`] and by property tests.

use crate::options::{RecordOption, RejectReason};
use crate::record::CommittedVersion;
use crate::store::{ReadResult, Store};
use crate::types::{Key, KeyId, TxnId, Value, VersionNo};
use crate::wal::{LogRecord, Wal};

/// A write-ahead-logged store replica.
#[derive(Debug, Default)]
pub struct Replica {
    store: Store,
    wal: Wal,
    accepted: u64,
    rejected: u64,
    committed: u64,
    aborted: u64,
}

impl Replica {
    /// A fresh, empty replica.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a replica from a recovered log.
    pub fn recover(wal: Wal) -> Self {
        let store = wal.replay();
        Replica {
            store,
            wal,
            ..Default::default()
        }
    }

    /// Intern a key, returning the dense id the `*_id` hot-path methods
    /// take. The protocol layer resolves each message's key once and runs
    /// the whole validate/log/accept sequence on the id.
    pub fn intern(&mut self, key: &Key) -> KeyId {
        self.store.intern(key)
    }

    /// Read the latest committed state of a key.
    pub fn read(&self, key: &Key) -> ReadResult {
        self.store.read(key)
    }

    /// Read the latest committed state by interned id.
    pub fn read_id(&self, id: KeyId) -> ReadResult {
        self.store.read_id(id)
    }

    /// Validate an option without accepting it.
    pub fn validate(&self, key: &Key, option: &RecordOption) -> Result<(), RejectReason> {
        self.store.validate(key, option)
    }

    /// Validate an option by interned id without accepting it.
    pub fn validate_id(&self, id: KeyId, option: &RecordOption) -> Result<(), RejectReason> {
        self.store.validate_id(id, option)
    }

    /// Validate, log and accept an option.
    pub fn accept(&mut self, key: &Key, option: RecordOption) -> Result<(), RejectReason> {
        let id = self.store.intern(key);
        self.accept_id(id, option)
    }

    /// Validate, log and accept an option by interned id.
    pub fn accept_id(&mut self, id: KeyId, option: RecordOption) -> Result<(), RejectReason> {
        // Accept first (it validates internally) and log only on success:
        // the log still never contains an invalid acceptance, the option is
        // validated exactly once, and a rejection propagates as an error
        // instead of panicking the replica actor mid-drive-loop.
        let record = LogRecord::OptionAccepted {
            key: self.store.key_name(id).clone(),
            option: option.clone(),
        };
        self.store.accept_id(id, option)?;
        self.wal.append(record);
        self.accepted += 1;
        Ok(())
    }

    /// Record that an option was *rejected* (for statistics only — rejections
    /// don't change state and are not logged).
    pub fn note_rejection(&mut self) {
        self.rejected += 1;
    }

    /// Log and apply a transaction decision for one key.
    pub fn decide(&mut self, key: &Key, txn: TxnId, commit: bool) -> Option<VersionNo> {
        match self.store.key_id(key) {
            Some(id) => self.decide_id(id, txn, commit),
            None => {
                // Unknown key: the decision is still logged (the log is the
                // history of everything learned), but nothing applies.
                self.wal.append(LogRecord::Decided {
                    key: key.clone(),
                    txn,
                    commit,
                });
                if !commit {
                    self.aborted += 1;
                }
                None
            }
        }
    }

    /// Log and apply a transaction decision by interned id.
    pub fn decide_id(&mut self, id: KeyId, txn: TxnId, commit: bool) -> Option<VersionNo> {
        self.wal.append(LogRecord::Decided {
            key: self.store.key_name(id).clone(),
            txn,
            commit,
        });
        let result = self.store.decide_id(id, txn, commit);
        if result.is_some() {
            self.committed += 1;
        } else if !commit {
            self.aborted += 1;
        }
        result
    }

    /// Log and apply a state-transfer install from the key's master.
    /// Returns true if the committed head advanced.
    pub fn install(&mut self, key: &Key, version: VersionNo, value: Value, txn: TxnId) -> bool {
        let id = self.store.intern(key);
        self.install_id(id, version, value, txn)
    }

    /// Log and apply a state-transfer install by interned id.
    pub fn install_id(&mut self, id: KeyId, version: VersionNo, value: Value, txn: TxnId) -> bool {
        self.wal.append(LogRecord::Installed {
            key: self.store.key_name(id).clone(),
            version,
            value: value.clone(),
            txn,
        });
        self.store.install_id(id, version, value, txn)
    }

    /// True if `txn` currently holds a pending option on `key` — used by the
    /// protocol layer to make re-proposals (retry/fallback rounds)
    /// idempotent.
    pub fn has_pending(&self, key: &Key, txn: TxnId) -> bool {
        self.store
            .record(key)
            .is_some_and(|r| r.pending().iter().any(|o| o.txn == txn))
    }

    /// [`Replica::has_pending`] by interned id.
    pub fn has_pending_id(&self, id: KeyId, txn: TxnId) -> bool {
        self.store
            .record_id(id)
            .pending()
            .iter()
            .any(|o| o.txn == txn)
    }

    /// Checkpoint the WAL: install a snapshot of the live store and drop
    /// the retained log tail. The recovery invariant is preserved — replay
    /// restarts from the snapshot — which [`Replica::verify_recovery`]
    /// continues to check afterwards. O(pages) pointer copies: the snapshot
    /// shares the store's pages until the store writes to them.
    pub fn checkpoint(&mut self) {
        self.wal.checkpoint(&mut self.store);
    }

    /// Checkpoint if the retained WAL tail holds at least `threshold`
    /// records (`threshold` 0 disables). Returns true if one was taken.
    pub fn maybe_checkpoint(&mut self, threshold: usize) -> bool {
        if threshold > 0 && self.wal.len() >= threshold {
            self.checkpoint();
            true
        } else {
            false
        }
    }

    /// The committed versions of `key` since the last checkpoint, oldest
    /// first: the head the checkpoint holds (if it holds the key), then each
    /// head the log tail produced. The store keeps heads only; the chain is
    /// read back from the log, so a replica recovered from a clone of the
    /// log reads the same chain. What the model checker compares across
    /// replicas; O(log tail), not for the hot path.
    pub fn versions(&self, key: &Key) -> Vec<CommittedVersion> {
        self.wal.versions(self.store.key_id(key), key)
    }

    /// The underlying store (read-only).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The write-ahead log (read-only).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Lifetime counters: `(accepted, rejected, committed, aborted)`.
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        (self.accepted, self.rejected, self.committed, self.aborted)
    }

    /// Check the recovery invariant: replaying this replica's WAL from
    /// scratch reproduces the live store state for every key it mentions.
    /// Returns the keys whose state diverged (empty = invariant holds).
    pub fn verify_recovery(&self) -> Vec<Key> {
        let recovered = self.wal.replay();
        let mut diverged = Vec::new();
        for key in self.store.keys() {
            if recovered.read(key) != self.store.read(key) {
                diverged.push(key.clone());
            }
        }
        diverged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::WriteOp;

    fn txn(n: u64) -> TxnId {
        TxnId::new(0, n)
    }

    /// A byte value accepted, installed and decided reads back equal, and
    /// the log replays to the same state.
    #[test]
    fn accepted_and_installed_byte_values_read_back_and_recover() {
        let payload = Value::bytes(&b"payload"[..]);
        let (a, b) = (Key::new("key-a"), Key::new("key-b"));
        let mut r = Replica::new();
        r.accept(
            &a,
            RecordOption::new(txn(1), 0, WriteOp::Set(payload.clone())),
        )
        .unwrap();
        assert!(r.install(&b, 3, payload.clone(), txn(2)));
        r.decide(&a, txn(1), true);
        r.decide(&Key::new("unknown"), txn(9), false);
        assert_eq!(r.read(&Key::new("key-a")).value, payload);
        assert_eq!(r.read(&Key::new("key-b")).value, payload);
        assert!(r.verify_recovery().is_empty());
    }

    #[test]
    fn accept_and_decide_are_logged() {
        let mut r = Replica::new();
        let k = Key::new("a");
        r.accept(
            &k,
            RecordOption::new(txn(1), 0, WriteOp::Set(Value::Int(5))),
        )
        .unwrap();
        r.decide(&k, txn(1), true);
        assert_eq!(r.wal().len(), 2);
        assert_eq!(r.stats(), (1, 0, 1, 0));
    }

    #[test]
    fn rejected_options_do_not_pollute_log() {
        let mut r = Replica::new();
        let k = Key::new("a");
        r.accept(
            &k,
            RecordOption::new(txn(1), 0, WriteOp::Set(Value::Int(5))),
        )
        .unwrap();
        let err = r.accept(
            &k,
            RecordOption::new(txn(2), 0, WriteOp::Set(Value::Int(6))),
        );
        assert!(err.is_err());
        r.note_rejection();
        assert_eq!(r.wal().len(), 1);
        assert_eq!(r.stats().1, 1);
    }

    #[test]
    fn recovery_reproduces_live_state() {
        let mut r = Replica::new();
        let k = Key::new("stock");
        r.accept(
            &k,
            RecordOption::new(txn(1), 0, WriteOp::Set(Value::Int(10))),
        )
        .unwrap();
        r.decide(&k, txn(1), true);
        r.accept(
            &k,
            RecordOption::new(txn(2), 0, WriteOp::add_with_floor(-1, 0)),
        )
        .unwrap();
        assert!(r.verify_recovery().is_empty());

        let recovered = Replica::recover(r.wal().clone());
        assert_eq!(recovered.read(&k), r.read(&k));
    }

    #[test]
    fn recovery_holds_across_checkpoint() {
        let mut r = Replica::new();
        let k = Key::new("a");
        r.accept(
            &k,
            RecordOption::new(txn(1), 0, WriteOp::Set(Value::Int(1))),
        )
        .unwrap();
        r.decide(&k, txn(1), true);
        r.checkpoint();
        assert_eq!(r.wal().len(), 0);
        assert!(r.verify_recovery().is_empty(), "post-checkpoint, pre-tail");
        r.accept(&k, RecordOption::new(txn(2), 1, WriteOp::add(4)))
            .unwrap();
        r.decide(&k, txn(2), true);
        assert!(r.verify_recovery().is_empty(), "snapshot + tail replay");
        let recovered = Replica::recover(r.wal().clone());
        assert_eq!(recovered.read(&k), r.read(&k));
        assert_eq!(recovered.read(&k).value, Value::Int(5));
    }

    #[test]
    fn maybe_checkpoint_honors_threshold() {
        let mut r = Replica::new();
        let k = Key::new("a");
        r.accept(
            &k,
            RecordOption::new(txn(1), 0, WriteOp::Set(Value::Int(1))),
        )
        .unwrap();
        assert!(!r.maybe_checkpoint(0), "0 disables");
        assert!(!r.maybe_checkpoint(5), "below threshold");
        r.decide(&k, txn(1), true);
        assert!(r.maybe_checkpoint(2));
        assert_eq!(r.wal().len(), 0);
        assert!(r.verify_recovery().is_empty());
    }

    #[test]
    fn abort_counts() {
        let mut r = Replica::new();
        let k = Key::new("a");
        r.accept(&k, RecordOption::new(txn(1), 0, WriteOp::add(1)))
            .unwrap();
        r.decide(&k, txn(1), false);
        assert_eq!(r.stats(), (1, 0, 0, 1));
    }
}
